"""Record every pool unit's outputs into ``perfbench/expected.json``.

    python3 perfbench/record.py [workload ...]

Run from the repository root, on the commit whose outputs are the reference.
Re-record only when a change is meant to alter the package's outputs, and
say so in that change. Recording every pool takes several minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import OUT, import_package  # noqa: E402


def main(argv) -> int:
    import_package()
    from perfbench import workloads

    names = argv or list(workloads.WORKLOADS)
    expected = workloads.load_expected() if workloads.EXPECTED_PATH.exists() else {}
    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            inputs = wl.build_inputs(workdir)
            table = {}
            for entry in range(wl.pool_size):
                for unit in wl.round_units(entry):
                    observed = wl.collect(inputs, unit, wl.run_unit(inputs, unit, 1))
                    errors = wl.invariant_errors(unit, observed)
                    if errors:
                        raise SystemExit(f"{name} {unit.key}: {errors}")
                    table[unit.key] = observed
                print(f"{name}: pool entry {entry + 1}/{wl.pool_size}", file=sys.stderr)
            expected[name] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
