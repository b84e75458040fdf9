"""End-to-end acceptance checks with pinned tolerances.

Each test covers one numbered criterion, records a single pass/fail line
for the terminal summary, and fails hard when its tolerance is violated.
The trend sweep (criteria 5-7) runs once and is shared.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest
from conftest import (
    complete_graph,
    criterion_1_graphs,
    cycle_graph,
    path_graph,
    record_acceptance,
    star_graph,
)

from seqlocate import (
    ExperimentConfig,
    bound_prediction,
    columns_pairwise_distinct,
    er_parameters,
    md_exact,
    qc_exact,
    qc_threshold,
    run_experiment,
    run_level_fractions,
    run_md_smd_sweep,
    run_threshold_sweep,
    sample_bernoulli,
    smd_exact,
    smd_maxgain_worstcase,
    sqc_exact,
    sqc_maxgain_worstcase,
    summary_path_for,
)

TREND_NS = [250, 500, 1000, 2000]
TREND_P = 0.3
TREND_TRIALS = 20
TREND_SEED = 20240817
GAMMA = 1.0 - TREND_P  # dominant mass for p=0.3 in the two-level regime
THREADS = min(os.cpu_count() or 1, 8)


def _check(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_acceptance(line)
    assert ok, line


@pytest.fixture(scope="module")
def trend_sweep(tmp_path_factory):
    cfg = ExperimentConfig(
        kind="md_smd_sweep",
        n_values=TREND_NS,
        p_or_q=[TREND_P],
        trials=TREND_TRIALS,
        base_seed=TREND_SEED,
        caps={"exact_n_limit": 0},
        output_path=str(tmp_path_factory.mktemp("trend") / "trend.csv"),
        threads=THREADS,
    )
    start = time.perf_counter()
    records, summaries = run_md_smd_sweep(cfg)
    elapsed = time.perf_counter() - start
    return records, summaries, elapsed


def test_criterion_1_ordering_chain():
    """Assert the links that hold by construction; report MAX-GAIN vs MD.

    ``smd_exact`` is the optimum over all seekers, so it bounds the MAX-GAIN
    worst case from below; MAX-GAIN takes only splitting queries, so its
    worst case is at most n-1; a resolving set played in order is an
    adaptive strategy, so ``smd_exact <= md_exact``.  MAX-GAIN looks one step
    ahead and can exceed MD (see
    ``test_game.py::test_maxgain_can_exceed_metric_dimension``), so that
    comparison is counted in the summary line, not asserted.
    """
    start = time.perf_counter()
    checked = 0
    lower_viol = []  # smd_exact <= smd_maxgain_worstcase
    greedy_viol = []  # smd_maxgain_worstcase <= n - 1
    base_viol = []  # smd_exact <= md_exact <= n - 1
    above_md = []  # smd_maxgain_worstcase > md_exact: reported only

    def probe(label, g):
        nonlocal checked
        s = smd_exact(g)
        w = smd_maxgain_worstcase(g)
        m, _ = md_exact(g)
        checked += 1
        if s > w:
            lower_viol.append(f"{label}: smd={s} worst={w}")
        if w > g.n - 1:
            greedy_viol.append(f"{label}: worst={w} n={g.n}")
        if not s <= m <= g.n - 1:
            base_viol.append(f"{label}: smd={s} md={m} n={g.n}")
        if w > m:
            above_md.append(f"{label}: worst={w} md={m}")

    for label, g in criterion_1_graphs():
        probe(label, g)

    elapsed = time.perf_counter() - start
    violations = lower_viol + greedy_viol + base_viol
    ok = not violations and checked >= 527 and elapsed < 120.0
    detail = (
        f"smd <= maxgain-worst <= n-1 and smd <= md <= n-1 on {checked} graphs "
        f"(500 random on 4-8 nodes at p=0.5 + families), {elapsed:.1f}s < 120s; "
        f"maxgain-worst > md on {len(above_md)} graphs (reported, not asserted)"
    )
    if above_md:
        detail += (
            f", e.g. {above_md[0]}"
            " (cf. test_game.py::test_maxgain_can_exceed_metric_dimension)"
        )
    if violations:
        detail += (
            f"; smd<=worst violations: {len(lower_viol)}, "
            f"worst<=n-1 violations: {len(greedy_viol)}, "
            f"smd<=md<=n-1 violations: {len(base_viol)}, e.g. {violations[0]}"
        )
    _check(1, ok, detail)


def test_criterion_2_family_values():
    failures = []
    for n in range(2, 9):
        if (md_exact(path_graph(n))[0], smd_exact(path_graph(n))) != (1, 1):
            failures.append(f"P{n}")
    for n in range(2, 9):
        if (md_exact(complete_graph(n))[0], smd_exact(complete_graph(n))) != (n - 1, n - 1):
            failures.append(f"K{n}")
    for m in range(2, 9):
        if (md_exact(star_graph(m))[0], smd_exact(star_graph(m))) != (m - 1, m - 1):
            failures.append(f"K1_{m}")
    if (md_exact(cycle_graph(4))[0], smd_exact(cycle_graph(4))) != (2, 2):
        failures.append("C4")
    _check(
        2,
        not failures,
        "family oracles exact (P_n=1, K_n=n-1, K_1m=m-1, C4=2)"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_3_threshold_transition(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="threshold_sweep",
        n_values=[1024],
        p_or_q=[0.5],
        trials=200,
        base_seed=TREND_SEED,
        caps={},
        output_path=str(tmp_path / "threshold.csv"),
        m_values=[14, 26],
    )
    rows = {r.m: r.p_distinct for r in run_threshold_sweep(cfg)}
    threshold = qc_threshold(1024, 0.5)
    elapsed = time.perf_counter() - start
    ok = rows[14] <= 0.10 and rows[26] >= 0.90 and threshold == 20.0 and elapsed < 60.0
    _check(
        3,
        ok,
        f"P(distinct)={rows[14]:.3f} at m=14 (<=0.10), {rows[26]:.3f} at m=26 "
        f"(>=0.90), threshold={threshold} (==20.0), {elapsed:.1f}s < 60s",
    )


def test_criterion_4_level_fractions(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="level_fractions",
        n_values=[5000],
        p_or_q=[0.02],
        trials=20,
        base_seed=42,
        caps={},
        output_path=str(tmp_path / "levels.csv"),
        sources_per_graph=50,
    )
    rows = {r.level: r for r in run_level_fractions(cfg)}
    elapsed = time.perf_counter() - start
    emp2 = rows[2].empirical_fraction
    emp3 = rows[3].empirical_fraction
    dev1 = rows[1].ratio_max_deviation
    ok = (
        abs(emp2 - 0.845) <= 0.05
        and abs(emp3 - 0.135) <= 0.05
        and dev1 < 0.4
        and elapsed < 120.0
    )
    _check(
        4,
        ok,
        f"level fractions d2={emp2:.4f} (0.845+-0.05), d3={emp3:.4f} (0.135+-0.05), "
        f"degree ratio max dev={dev1:.3f} (<0.4), {elapsed:.1f}s < 120s",
    )


def test_criterion_5_trend_windows(trend_sweep):
    _, summaries, elapsed = trend_sweep
    rate = math.log(1.0 / GAMMA)
    window_fails = []
    xs, ys = [], []
    for s in summaries:
        predicted = math.log(s.n) / rate
        xs.append(math.log(s.n))
        ys.append(s.smd_estimate_mean)
        if not 0.5 * predicted <= s.smd_estimate_mean <= 1.5 * predicted:
            window_fails.append(f"n={s.n}: mean={s.smd_estimate_mean:.2f}")
    x = np.array(xs)
    y = np.array(ys)
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
    target = 1.0 / rate
    slope_ok = 0.6 * target <= slope <= 1.4 * target
    ok = not window_fails and slope_ok and elapsed < 300.0
    means = ", ".join(f"{s.n}:{s.smd_estimate_mean:.2f}" for s in summaries)
    _check(
        5,
        ok,
        f"mean steps ({means}) inside [0.5,1.5]*lnN/ln(1/{GAMMA}); slope "
        f"{slope:.3f} within 40% of {target:.3f}; sweep {elapsed:.1f}s < 300s"
        + (f"; outside window: {window_fails}" if window_fails else ""),
    )


def test_criterion_6_md_vs_smd(trend_sweep):
    _, summaries, _ = trend_sweep
    order_fails = [
        f"n={s.n}"
        for s in summaries
        if s.md_greedy_mean < s.smd_estimate_mean - 2.0 * s.smd_estimate_stderr
    ]
    f_gamma = bound_prediction(er_parameters(1000, TREND_P)).f_gamma
    gamma_ok = 0.5 < f_gamma < 1.0 and abs(f_gamma - 0.7636) < 1e-3
    ok = not order_fails and gamma_ok
    _check(
        6,
        ok,
        f"mean md_greedy >= mean smd - 2se at every N; F_gamma={f_gamma:.4f} "
        f"in (1/2, 1)" + (f"; order failed at {order_fails}" if order_fails else ""),
    )


def test_trend_prediction_gap_readout(trend_sweep):
    """Report, not assert, how far the finite-n sweep sits from the
    leading terms that ``bound_prediction`` evaluates: per n, the greedy
    set's mean over ``md_predicted``, and the trials whose greedy set (an
    upper bound on SMD) falls below ``bound_lower``."""
    records, summaries, _ = trend_sweep
    ratios, below = [], []
    for s in summaries:
        cell = [r for r in records if (r.n, r.p) == (s.n, s.p)]
        assert len(cell) == s.trials
        ratio = f"{s.md_greedy_mean / s.md_predicted:.2f}" if s.md_predicted else "n/a"
        under = sum(r.bound_lower is not None and r.md_greedy_size < r.bound_lower for r in cell)
        ratios.append(f"{s.n}:{ratio}")
        below.append(f"{s.n}:{under}/{len(cell)}")
    record_acceptance(
        "trend readout (reported, not asserted) - md_greedy_mean/md_predicted "
        f"({', '.join(ratios)}); greedy set below bound_lower ({', '.join(below)})"
    )


def test_criterion_7_stepwise_shrink(trend_sweep):
    records, _, _ = trend_sweep
    total = satisfied = 0
    for r in records:
        traj = r.candidate_trajectory
        for size, nxt in zip(traj, traj[1:]):
            if size < 30:
                continue
            total += 1
            if nxt <= GAMMA * size + 3.0 * math.sqrt(size):
                satisfied += 1
    frac = satisfied / total if total else 0.0
    ok = total > 0 and frac >= 0.95
    _check(
        7,
        ok,
        f"candidate shrink |T'| <= {GAMMA}|T| + 3sqrt|T| on {satisfied}/{total} "
        f"steps with |T| >= 30 ({frac:.1%} >= 95%)",
    )


def test_criterion_8_determinism(tmp_path):
    sweep_cfg = dict(
        kind="md_smd_sweep",
        n_values=[40, 60],
        p_or_q=[0.3],
        trials=5,
        base_seed=11,
        caps={"exact_n_limit": 0},
    )
    threshold_cfg = dict(
        kind="threshold_sweep",
        n_values=[256],
        p_or_q=[0.5],
        trials=30,
        base_seed=11,
        caps={},
        m_values=[6, 10],
    )
    mismatches = []
    for name, base in [("md_smd", sweep_cfg), ("threshold", threshold_cfg)]:
        outputs = []
        for run, threads in [(0, 1), (1, 1), (2, 3)]:
            path = tmp_path / f"{name}_{run}.csv"
            run_experiment(
                ExperimentConfig(**base, output_path=str(path), threads=threads)
            )
            blob = path.read_bytes()
            summary = summary_path_for(path)
            if summary.exists():
                blob += summary.read_bytes()
            outputs.append(blob)
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatches.append(name)
    _check(
        8,
        not mismatches,
        "sweep CSVs byte-identical across reruns and thread counts (1, 1, 3) "
        "for md_smd and threshold kinds"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )


def test_criterion_9_matrix_chain():
    chain_viol = slack_viol = 0
    count = 0
    seed = 0
    worst_slack = -99
    while count < 200:
        a = sample_bernoulli(12, 8, 0.5, seed)
        seed += 1
        if not columns_pairwise_distinct(a):
            continue
        count += 1
        s = sqc_exact(a)
        q, _ = qc_exact(a)
        w = sqc_maxgain_worstcase(a)
        worst_slack = max(worst_slack, w - q)
        if s > q:
            chain_viol += 1
        if w > q + 2:
            slack_viol += 1
    ok = chain_viol == 0 and slack_viol == 0
    _check(
        9,
        ok,
        f"200 distinct 12x8 Bernoulli(0.5) matrices: sqc_exact <= qc_exact "
        f"({chain_viol} violations), maxgain-worst <= qc_exact+2 "
        f"({slack_viol} violations, max slack {worst_slack})",
    )
