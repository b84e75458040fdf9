"""Compare the end-to-end metrics of two result sets.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--trace 0`` result files that ``run.py`` wrote
(``perfbench/out/results/``) for one commit. Runs are paired by workload and
seed. For each workload and metric the table gives each side's median and
quartiles, the share of pairs the change wins, and a verdict:

- failed: the change's runs fail more items than the parent's; no gain
  counts then, however fast they ran;
- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  distance between the parent's quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's quartile distance is wider than the bound,
  unless every change run reads better than every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(pairs: list[tuple[float, float]], better: str, bound: float,
            failed: tuple[int, int] = (0, 0)) -> tuple[str, float]:
    """Verdict and win rate for (parent, change) value pairs of one metric,
    given the items the (parent, change) runs failed."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    if failed[1] > failed[0]:
        return "failed", win_rate
    if len(pairs) < 2:
        return "unresolved", win_rate
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    gain = sign * (cm - pm)
    if len(pairs) >= 10 and win_rate >= 0.9 and gain > spread:
        return "improved", win_rate
    if -gain > bound * abs(pm):
        return "worse", win_rate
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound * abs(pm) and not all_better:
        return "unresolved", win_rate
    return "unchanged", win_rate


def load(directory: Path) -> dict:
    """(workload, seed) -> result record, for every --trace 0 result file."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            out[(rec["workload"], rec["fingerprint"]["workload_seed"])] = rec
    return out


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        seeds = sorted(s for (w, s) in parent if w == wl and (w, s) in change)
        failed = (sum(parent[(wl, s)]["failed"] for s in seeds),
                  sum(change[(wl, s)]["failed"] for s in seeds))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(parent[(wl, s)]["metrics"][name]["value"],
                      change[(wl, s)]["metrics"][name]["value"]) for s in seeds]
            v, win_rate = verdict(pairs, metric["better"], metric["bound"], failed)
            rows.append({
                "workload": wl, "metric": name, "unit": metric["unit"], "pairs": len(pairs),
                "parent": _quartiles([p for p, _ in pairs]),
                "change": _quartiles([c for _, c in pairs]),
                "win_rate": win_rate, "verdict": v, "failed": failed,
            })
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "pairs", "wins", "failed p/c", "verdict")
    print(" | ".join(header))
    for r in rows:
        print(" | ".join([
            r["workload"], f"{r['metric']} ({r['unit']})", r["parent"], r["change"],
            str(r["pairs"]), f"{r['win_rate']:.0%}", f"{r['failed'][0]}/{r['failed'][1]}",
            r["verdict"],
        ]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
