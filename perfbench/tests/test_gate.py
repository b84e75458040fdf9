"""The output gate: a changed recorded value counts its items as failed."""

import copy

import pytest

from perfbench import workloads
from perfbench.run import run_pass


def _record(wl, inputs):
    table = {}
    for unit in wl.round_units(0):
        table[unit.key] = wl.collect(inputs, unit, wl.run_unit(inputs, unit, 1))
    return {wl.name: table}


@pytest.fixture
def exact(tmp_path):
    wl = workloads.ExactWorkload("exact-test", pool_size=1)
    wl.graph_ns = (8, 10)
    wl.matrix_shape = (8, 8)
    wl.matrices_per_round = 1
    inputs = wl.build_inputs(tmp_path)
    return wl, inputs, _record(wl, inputs)


@pytest.fixture
def sweep(tmp_path):
    wl = workloads.SweepWorkload("sweep-test", (30,), 0.3, trials=2, pool_size=1)
    inputs = wl.build_inputs(tmp_path)
    return wl, inputs, _record(wl, inputs)


def test_recorded_outputs_pass(exact, sweep):
    for wl, inputs, expected in (exact, sweep):
        p = run_pass(wl, inputs, [0], 1, expected)
        assert p.items > 0 and p.failed == 0


def test_changed_exact_value_fails_its_item(exact):
    wl, inputs, expected = exact
    bad = copy.deepcopy(expected)
    bad[wl.name]["g10-e0"]["md_exact"] += 1
    p = run_pass(wl, inputs, [0], 1, bad)
    assert (p.items, p.failed) == (3, 1)
    errors = [e for _, _, _, errs in p.units for e in errs]
    assert errors == [f"md_exact: got {expected[wl.name]['g10-e0']['md_exact']}, "
                      f"recorded {bad[wl.name]['g10-e0']['md_exact']}"]


def test_changed_sweep_digest_fails_every_trial_of_the_call(sweep):
    wl, inputs, expected = sweep
    bad = copy.deepcopy(expected)
    bad[wl.name]["e0"]["summary_sha256"] = "0" * 64
    p = run_pass(wl, inputs, [0], 1, bad)
    assert (p.items, p.failed) == (2, 2)


def test_raising_solver_fails_its_item_and_the_pass_goes_on(exact, monkeypatch):
    wl, inputs, expected = exact

    def broken(g):
        raise RuntimeError("pruning bug")

    monkeypatch.setattr(workloads.localization, "md_exact", broken)
    p = run_pass(wl, inputs, [0], 1, expected)
    assert (p.items, p.failed) == (3, 2)
    errors = [e for _, _, _, errs in p.units for e in errs]
    assert errors == ["raised RuntimeError('pruning bug')"] * 2


def test_broken_invariant_fails_even_when_recorded(exact):
    wl, _, _ = exact
    unit = workloads.Unit("g10-e0", 1)
    observed = {"input_sha256": "x", "smd_exact": 5, "smd_maxgain_worstcase": 4, "md_exact": 9}
    assert len(wl.invariant_errors(unit, observed)) == 1
    observed = {"sqc_exact": 3, "sqc_maxgain_worstcase": 3, "qc_exact": 2, "qc_greedy": 4}
    assert len(wl.invariant_errors(workloads.Unit("m8x8.0-e0", 1), observed)) == 1
