"""The module attributes that the traced benchmark rebinds still exist.

``perfbench/probes.py`` swaps package functions for traced wrappers by
name.  A refactor that renames or drops one of those names breaks only the
traced benchmark run, so this test installs the probes in-process, checks
that each pinned name was swapped and puts every original back.
"""

from __future__ import annotations

import sys
from pathlib import Path

# perfbench is a package at the repository root, beside src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import probes  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from seqlocate import cli, experiments, game, localization, matrices  # noqa: E402

PROBED = {
    cli: ["dispatch"],
    experiments: [
        "run_experiment", "run_md_smd_sweep", "write_csv", "sample_gnp", "er_parameters",
        "bound_prediction", "is_connected", "md_greedy", "play_game", "smd_exact",
        "distance_matrix", "derive_trial_seed",
    ],
    game: ["distance_matrix", "smd_exact", "smd_maxgain_worstcase"],
    localization: ["distance_matrix", "md_exact"],
    matrices: ["sqc_exact", "sqc_maxgain_worstcase", "qc_exact", "qc_greedy"],
}


def test_install_swaps_pinned_names_and_restore_puts_them_back():
    before = {module: dict(vars(module)) for module in PROBED}
    rb = probes.install(Tracer())
    try:
        for module, attrs in PROBED.items():
            for attr in attrs:
                assert getattr(module, attr) is not before[module][attr], f"{module.__name__}.{attr}"
    finally:
        rb.restore()
    for module, saved in before.items():
        assert vars(module).keys() == saved.keys()
        for attr, value in saved.items():
            assert vars(module)[attr] is value, f"{module.__name__}.{attr}"
