"""Experiment configs, seed derivation, sweep runners, CSV output."""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys

import pytest

from seqlocate import (
    ExperimentConfig,
    ExperimentError,
    SummaryRow,
    TRIAL_CSV_FIELDS,
    derive_trial_seed,
    run_experiment,
    run_level_fractions,
    run_md_smd_sweep,
    run_threshold_sweep,
    summary_path_for,
    write_csv,
)
from seqlocate import er_parameters, experiments, game, localization


def base_config(tmp_path, **overrides) -> ExperimentConfig:
    data = dict(
        kind="md_smd_sweep",
        n_values=[20],
        p_or_q=[0.4],
        trials=3,
        base_seed=99,
        caps={"step_cap": 40, "exact_n_limit": 20},
        output_path=str(tmp_path / "out.csv"),
    )
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


class TestConfig:
    def test_kind_normalized(self):
        cfg = ExperimentConfig(
            kind="MD-SMD-Sweep",
            n_values=[10],
            p_or_q=[0.5],
            trials=1,
            base_seed=0,
            caps={},
            output_path="x.csv",
        )
        assert cfg.kind == "md_smd_sweep"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(
                kind="mystery",
                n_values=[10],
                p_or_q=[0.5],
                trials=1,
                base_seed=0,
                caps={},
                output_path="x.csv",
            )

    def test_rejects_unknown_field(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config fields"):
            base_config(tmp_path, bogus=1)

    def test_rejects_bad_n_values(self, tmp_path):
        with pytest.raises(ValueError):
            base_config(tmp_path, n_values=[])
        with pytest.raises(ValueError):
            base_config(tmp_path, n_values=[2])

    def test_rejects_bad_p_rule(self, tmp_path):
        with pytest.raises(ValueError, match="p rule"):
            base_config(tmp_path, p_or_q="N^2/3")

    def test_accepts_p_rule_string(self, tmp_path):
        cfg = base_config(tmp_path, n_values=[100], p_or_q="6/N^0.5")
        assert cfg.p_or_q == "6/N^0.5"
        assert cfg.cells() == [(100, 0.6)]

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match=r"missing config fields: \['p_or_q', 'trials', 'base_seed'\]"):
            ExperimentConfig.from_dict({"kind": "md_smd_sweep", "n_values": [20]})

    def test_rejects_non_object(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_dict([["kind", "md_smd_sweep"]])
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json_file(path)

    @pytest.mark.parametrize(
        "caps, message",
        [
            ({"exact_n_limt": 20}, "caps takes only the keys"),
            ({"step_cap": 5, "bogus": 1}, "caps takes only the keys"),
            ([], "caps takes only the keys"),
            ({"step_cap": 0}, "step_cap must be null or >= 1"),
            ({"step_cap": -3}, "step_cap must be null or >= 1"),
            ({"exact_n_limit": -1}, "exact_n_limit must be >= 0"),
        ],
    )
    def test_rejects_bad_caps(self, tmp_path, caps, message):
        with pytest.raises(ValueError, match=message):
            base_config(tmp_path, caps=caps)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"trials": "3"}, "trials must be an integer, got '3'"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"sources_per_graph": 0}, "sources_per_graph must be >= 1"),
            ({"base_seed": "x"}, "base_seed must be an integer, got 'x'"),
            ({"threads": 2.5}, "threads must be an integer, got 2.5"),
            ({"sources_per_graph": None}, "sources_per_graph must be an integer, got None"),
            ({"n_values": "20"}, "n_values must be a list, got '20'"),
            ({"n_values": [20, 30.0]}, "n_values must be an integer, got 30.0"),
            ({"m_values": [2, "8"]}, "m_values must be an integer, got '8'"),
            ({"caps": {"step_cap": "5"}}, "step_cap must be an integer, got '5'"),
            ({"caps": {"exact_n_limit": None}}, "exact_n_limit must be an integer, got None"),
            ({"caps": {"exact_n_limit": False}}, "exact_n_limit must be an integer, got False"),
            ({"kind": 5}, "unknown experiment kind 5"),
            ({"p_or_q": 5}, "p_or_q must be a rule string or a nonempty list, got 5"),
            ({"p_or_q": []}, r"p_or_q must be a rule string or a nonempty list, got \[\]"),
            ({"p_or_q": ["0.3"]}, "p_or_q entries must be numbers, got '0.3'"),
            ({"p_or_q": [True]}, "p_or_q entries must be numbers, got True"),
            ({"p_or_q": [0.3, None]}, "p_or_q entries must be numbers, got None"),
            ({"output_path": None}, "output_path must be a string, got None"),
            ({"output_path": 7}, "output_path must be a string, got 7"),
            (
                {"n_values": [10, 70], "caps": {"exact_n_limit": 70}},
                "exact_n_limit 70 reaches n=70, but the exact solvers handle at most 64 targets",
            ),
            (
                {"n_values": [250, 500, 1000], "p_or_q": "0.001/N^-1"},
                r"cell n=1000, p=1\.0: need 0 < p < 1",
            ),
            ({"p_or_q": "6/N^0.5"}, r"cell n=20, p=1\.34\d*: need 0 < p < 1"),
            ({"p_or_q": [0.4, 1.0]}, r"cell n=20, p=1\.0: need 0 < p < 1"),
            ({"p_or_q": [0]}, r"cell n=20, p=0\.0: need 0 < p < 1"),
            ({"p_or_q": [float("nan")]}, "cell n=20, p=nan: need 0 < p < 1"),
            ({"p_or_q": "1/N^-1e10"}, r"p rule '1/N\^-1e10': "),
            ({"p_or_q": "1.2.3/N^0.5"}, r"^bad p rule '1\.2\.3/N\^0\.5', expected 'c/N\^a'$"),
            ({"p_or_q": "-/N^1"}, r"^bad p rule '-/N\^1', expected 'c/N\^a'$"),
            ({"p_or_q": "e/N^1"}, r"^bad p rule 'e/N\^1', expected 'c/N\^a'$"),
            ({"p_or_q": "1/N^+"}, r"^bad p rule '1/N\^\+', expected 'c/N\^a'$"),
            (
                {"kind": "level_fractions", "p_or_q": [1.5], "caps": {}},
                r"cell n=20, p=1\.5: need 0 < p < 1",
            ),
            (
                {"kind": "threshold_sweep", "p_or_q": [1.5], "caps": {}, "m_values": [4]},
                r"cell n=20, q=1\.5: need 0 <= q <= 1",
            ),
            (
                {"kind": "threshold_sweep", "p_or_q": [-0.5], "caps": {}, "m_values": [4]},
                r"cell n=20, q=-0\.5: need 0 <= q <= 1",
            ),
            (
                {"kind": "threshold_sweep", "p_or_q": [0.5, 1], "caps": {}},
                r"cell n=20, q=1\.0: the default m grid needs 0 < q < 1",
            ),
            (
                {"kind": "threshold_sweep", "p_or_q": [0], "caps": {}},
                r"cell n=20, q=0\.0: the default m grid needs 0 < q < 1",
            ),
        ],
        ids=str,
    )
    def test_rejects_wrong_json_types_at_load(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=message):
            base_config(tmp_path, **overrides)

    def test_accepts_int_and_float_p_values(self, tmp_path):
        # with m_values a threshold sweep takes q at both ends of [0, 1]
        cfg = base_config(
            tmp_path, kind="threshold_sweep", p_or_q=[1, 0.5, 0], caps={}, m_values=[4]
        )
        assert cfg.p_or_q == [1, 0.5, 0]
        assert cfg.p_values_for(20) == [1.0, 0.5, 0.0]

    def test_cells_are_n_major(self, tmp_path):
        cfg = base_config(tmp_path, n_values=[30, 20, 30], p_or_q=[0.4, 0.2])
        assert cfg.cells() == [(30, 0.4), (30, 0.2), (20, 0.4), (20, 0.2), (30, 0.4), (30, 0.2)]

    def test_accepts_caps_at_their_limits(self, tmp_path):
        cfg = base_config(tmp_path, caps={"step_cap": 1, "exact_n_limit": 0})
        assert (cfg.step_cap, cfg.exact_n_limit) == (1, 0)
        cfg = base_config(tmp_path, caps={"step_cap": None})
        assert (cfg.step_cap, cfg.exact_n_limit) == (None, 0)

    def test_threshold_sweep_rejects_rule_at_load(self, tmp_path):
        with pytest.raises(ValueError, match="threshold sweeps take explicit q values"):
            base_config(tmp_path, kind="threshold_sweep", p_or_q="6/N^0.5", caps={})

    def test_rejects_negative_row_count_at_load(self, tmp_path):
        with pytest.raises(ValueError, match="row count must be >= 0, got -1"):
            base_config(tmp_path, kind="threshold_sweep", p_or_q=[0.5], caps={}, m_values=[2, -1])

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "threshold_sweep",
                    "n_values": [16],
                    "p_or_q": [0.5],
                    "trials": 4,
                    "base_seed": 1,
                    "caps": {},
                    "output_path": str(tmp_path / "t.csv"),
                    "m_values": [2, 8],
                }
            )
        )
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg.kind == "threshold_sweep"
        assert cfg.m_values == [2, 8]


@pytest.mark.parametrize(
    "runner, kind",
    [
        (run_md_smd_sweep, "threshold_sweep"),
        (run_threshold_sweep, "level_fractions"),
        (run_level_fractions, "md_smd_sweep"),
    ],
)
def test_runner_rejects_another_kinds_config(tmp_path, runner, kind):
    cfg = base_config(tmp_path, kind=kind, caps={}, m_values=[4])
    with pytest.raises(ValueError, match=f"^config kind is '{kind}'$"):
        runner(cfg)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(5, "a", 1) == derive_trial_seed(5, "a", 1)

    def test_sensitive_to_every_part(self):
        s = derive_trial_seed(5, 100, 0.3, 2)
        assert s != derive_trial_seed(6, 100, 0.3, 2)
        assert s != derive_trial_seed(5, 101, 0.3, 2)
        assert s != derive_trial_seed(5, 100, 0.3, 3)

    def test_range(self):
        for k in range(50):
            assert 0 <= derive_trial_seed(k, "n", k) < 2**63


class TestCsv:
    def test_formatting(self, tmp_path):
        rows = [
            SummaryRow(
                n=100,
                p=0.25,
                trials=2,
                md_greedy_mean=4.123456789,
                md_greedy_stderr=0.0,
                smd_estimate_mean=3.5,
                smd_estimate_stderr=0.5,
                bound_lower=None,
                bound_upper=None,
                md_predicted=None,
                estimator="maxgain-vs-greedy-adversary-lower-estimate",
            )
        ]
        path = tmp_path / "rows.csv"
        write_csv(rows, path, list(SummaryRow.__dataclass_fields__))
        raw = path.read_bytes()
        assert b"\r" not in raw  # unix newlines regardless of platform
        lines = raw.decode().splitlines()
        assert lines[1].startswith("100,0.25,2,4.12346,0,3.5,0.5,,,")

    def test_summary_path(self):
        assert str(summary_path_for("runs/out.csv")).endswith("runs/out.summary.csv")


class TestMdSmdSweep:
    def test_records_and_summary(self, tmp_path):
        records, summaries = run_md_smd_sweep(base_config(tmp_path))
        assert len(records) == 3
        assert len(summaries) == 1
        s = summaries[0]
        assert s.trials == 3
        assert s.estimator == "maxgain-vs-greedy-adversary-lower-estimate"
        for r in records:
            assert r.md_greedy_size >= r.smd_estimate_steps >= 1
            assert r.smd_exact is not None  # n == 20 <= exact_n_limit
            assert r.smd_exact <= r.smd_estimate_steps
            assert r.wall_time_ms >= 0.0

    def test_trajectory_shape(self, tmp_path):
        records, _ = run_md_smd_sweep(base_config(tmp_path))
        for r in records:
            traj = r.candidate_trajectory
            assert traj[0] == 20
            assert traj[-1] == 1
            assert all(a > b for a, b in zip(traj, traj[1:]))
            assert len(traj) == r.smd_estimate_steps + 1

    def test_one_label_table_per_trial(self, tmp_path, monkeypatch):
        """md_greedy and the played game share the trial's label table."""
        builds = []
        build = localization._label_table

        def counted(labels):
            builds.append(labels.shape)
            return build(labels)

        for module in (localization, game):
            monkeypatch.setattr(module, "_label_table", counted)
        records, _ = run_md_smd_sweep(base_config(tmp_path, trials=1))
        assert len(records) == 1
        assert builds == [(20, 20)]

    def test_one_distance_matrix_per_trial(self, tmp_path, monkeypatch):
        """With exact_n_limit set, a trial's exact solver reads the trial's
        distance matrix, and the CSVs are the bytes of a run whose exact
        solver builds its own."""
        own = tmp_path / "own"
        own.mkdir()
        solve = experiments.smd_exact
        with monkeypatch.context() as m:
            m.setattr(experiments, "smd_exact", lambda g, cap=None, dm=None: solve(g, cap))
            run_experiment(base_config(own))
        shared = tmp_path / "shared"
        shared.mkdir()
        built = []
        apsp = experiments.distance_matrix

        def counted(g):
            built.append(g.n)
            return apsp(g)

        for module in (experiments, game, localization):
            monkeypatch.setattr(module, "distance_matrix", counted)
        cfg = base_config(shared)
        run_experiment(cfg)
        assert built == [20] * cfg.trials
        with open(shared / "out.csv", newline="") as fh:
            assert all(row["smd_exact"] for row in csv.DictReader(fh))
        for name in ("out.csv", "out.summary.csv"):
            assert (shared / name).read_bytes() == (own / name).read_bytes()

    def test_repeated_cell_summarizes_its_own_trials(self, tmp_path):
        """Each summary row reads the trials of its own place in the grid,
        even when another row has the same (n, p)."""
        records, summaries = run_md_smd_sweep(
            base_config(tmp_path, n_values=[30, 20, 30], trials=2, caps={})
        )
        assert [(s.n, s.trials) for s in summaries] == [(30, 2), (20, 2), (30, 2)]
        for k, s in enumerate(summaries):
            steps = [r.smd_estimate_steps for r in records[2 * k : 2 * k + 2]]
            assert s.smd_estimate_mean == pytest.approx(sum(steps) / 2)
            assert s.smd_estimate_stderr == pytest.approx(abs(steps[0] - steps[1]) / 2)
        assert [r.seed for r in records[:2]] == [r.seed for r in records[4:]]

    def test_exact_skipped_above_limit(self, tmp_path):
        cfg = base_config(tmp_path, caps={"exact_n_limit": 0})
        records, _ = run_md_smd_sweep(cfg)
        assert all(r.smd_exact is None for r in records)

    def test_bounds_absent_outside_regime(self, tmp_path):
        # 1 - p below 1/sqrt(n) invalidates the predicted bounds
        cfg = base_config(tmp_path, n_values=[20], p_or_q=[0.95])
        records, summaries = run_md_smd_sweep(cfg)
        assert all(r.bound_lower is None and r.bound_upper is None for r in records)
        assert summaries[0].bound_upper is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_persistently_disconnected_raises(self, tmp_path, threads):
        # At two workers the error is raised in a pool process and must reach
        # the caller with its type and message unchanged.  Both cells fail;
        # the pool starts n=40 first, but n=30 comes first in task order, so
        # its error is the one raised.
        cfg = base_config(tmp_path, n_values=[30, 40], p_or_q=[0.001], trials=2, threads=threads)
        with pytest.raises(ExperimentError) as excinfo:
            run_md_smd_sweep(cfg)
        assert excinfo.type is ExperimentError
        assert str(excinfo.value) == "cell (n=30, p=0.001): disconnected after 10 resamples"

    def test_wall_time_never_serialized(self):
        assert "wall_time_ms" not in TRIAL_CSV_FIELDS
        assert "candidate_trajectory" not in TRIAL_CSV_FIELDS


class TestThresholdSweep:
    def test_integer_q_values_write_the_float_rows(self, tmp_path):
        """q given as the JSON integers 1 and 0 writes the same CSV as 1.0
        and 0.0: the grid is read from ``cells()``, and a q of 0 or 1 gives
        a constant matrix whatever the trial seed."""
        texts = []
        for q_values in ([1, 0.5, 0], [1.0, 0.5, 0.0]):
            path = tmp_path / f"t{len(texts)}.csv"
            cfg = base_config(
                tmp_path, kind="threshold_sweep", n_values=[6], p_or_q=q_values, trials=3,
                caps={}, m_values=[0, 2, 6], output_path=str(path),
            )
            run_experiment(cfg)
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[1:4] == ["6,1,0,3,0", "6,1,2,3,0", "6,1,6,3,0"]

    def test_sharp_transition_at_tiny_scale(self, tmp_path):
        cfg = base_config(
            tmp_path,
            kind="threshold_sweep",
            n_values=[16],
            p_or_q=[0.5],
            trials=8,
            base_seed=5,
            caps={},
            m_values=[0, 2, 12],
        )
        rows = run_threshold_sweep(cfg)
        by_m = {r.m: r.p_distinct for r in rows}
        assert by_m[0] == 0.0  # no rows cannot separate 16 columns
        assert by_m[12] == 1.0
        assert by_m[0] <= by_m[2] <= by_m[12]

    def test_default_m_grid_brackets_threshold(self, tmp_path):
        cfg = base_config(
            tmp_path,
            kind="threshold_sweep",
            n_values=[64],
            p_or_q=[0.5],
            trials=2,
            caps={},
        )
        rows = run_threshold_sweep(cfg)
        ms = sorted({r.m for r in rows})
        thresh = -2.0 * math.log(64) / math.log(0.5)
        assert ms[0] < thresh < ms[-1]


class TestLevelFractions:
    def test_rows_cover_observed_levels(self, tmp_path):
        cfg = base_config(
            tmp_path,
            kind="level_fractions",
            n_values=[300],
            p_or_q=[0.3],
            trials=2,
            caps={},
            sources_per_graph=5,
        )
        rows = run_level_fractions(cfg)
        levels = [r.level for r in rows]
        assert levels == sorted(levels)
        assert 0 not in levels  # the source itself is excluded
        total = sum(r.empirical_fraction for r in rows)
        assert total == pytest.approx(1.0 - 1.0 / 300, rel=1e-6)

    def test_deviation_only_on_tree_levels(self, tmp_path):
        cfg = base_config(
            tmp_path,
            kind="level_fractions",
            n_values=[900],
            p_or_q=[0.012],
            trials=2,
            base_seed=11,
            caps={},
            sources_per_graph=4,
        )
        rows = run_level_fractions(cfg)
        with_dev = [r.level for r in rows if r.ratio_max_deviation is not None]
        assert with_dev == [1, 2]  # i == 2 for these parameters

    @pytest.mark.parametrize("n, p", [(50, 0.9), (10, 0.22)])
    def test_cell_outside_window_has_no_prediction(self, tmp_path, n, p):
        # (50, 0.9): 1 - p <= 1/sqrt(n), i = 0; (10, 0.22): delta <= ln(n), i = 1
        assert not er_parameters(n, p).regime_valid
        cfg = base_config(
            tmp_path, kind="level_fractions", n_values=[n], p_or_q=[p], caps={}, sources_per_graph=5
        )
        run_experiment(cfg)
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and [int(r["level"]) for r in rows] == list(range(1, len(rows) + 1))
        assert all(r["predicted_fraction"] == r["ratio_max_deviation"] == "" for r in rows)
        total = sum(float(r["empirical_fraction"]) for r in rows)
        assert total == pytest.approx(1.0 - 1.0 / n, rel=1e-5)


class TestRunExperiment:
    def test_writes_trial_and_summary_files(self, tmp_path):
        out = run_experiment(base_config(tmp_path))
        assert out["kind"] == "md_smd_sweep"
        assert out["rows"] == 3
        trial_lines = (tmp_path / "out.csv").read_text().splitlines()
        assert trial_lines[0] == ",".join(TRIAL_CSV_FIELDS)
        assert len(trial_lines) == 4
        with open(summary_path_for(tmp_path / "out.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["estimator"] == "maxgain-vs-greedy-adversary-lower-estimate"

    def test_csv_headers_are_pinned(self, tmp_path):
        run_experiment(base_config(tmp_path, caps={}))
        assert (tmp_path / "out.csv").read_text().splitlines()[0] == (
            "n,p,trial_index,seed,md_greedy_size,smd_estimate_steps,smd_exact,"
            "bound_lower,bound_upper,md_predicted"
        )
        assert summary_path_for(tmp_path / "out.csv").read_text().splitlines()[0] == (
            "n,p,trials,md_greedy_mean,md_greedy_stderr,smd_estimate_mean,"
            "smd_estimate_stderr,bound_lower,bound_upper,md_predicted,estimator"
        )
        run_experiment(
            base_config(tmp_path, kind="threshold_sweep", p_or_q=[0.5], caps={}, m_values=[4])
        )
        assert (tmp_path / "out.csv").read_text().splitlines()[0] == "n,q,m,trials,p_distinct"
        run_experiment(base_config(tmp_path, kind="level_fractions", trials=1, caps={}))
        assert (tmp_path / "out.csv").read_text().splitlines()[0] == (
            "n,p,level,empirical_fraction,predicted_fraction,ratio_max_deviation"
        )

    def test_byte_identical_across_thread_counts(self, tmp_path):
        # n_values out of size order: largest-first dispatch differs from task
        # order, and the trials of one n tie; the files must not depend on either.
        outputs = []
        for threads in (1, 2, 3, 4):
            path = tmp_path / f"out{threads}.csv"
            run_experiment(
                base_config(
                    tmp_path, n_values=[25, 40, 20], trials=3, threads=threads,
                    output_path=str(path),
                )
            )
            outputs.append((path.read_bytes(), summary_path_for(path).read_bytes()))
        assert outputs[1:] == [outputs[0]] * 3
        assert outputs[0][0].count(b"\n") == 10  # a header and nine trials

    def test_level_fractions_byte_identical_across_thread_counts(self, tmp_path):
        outputs = []
        for threads in (1, 3):
            path = tmp_path / f"levels{threads}.csv"
            run_experiment(
                base_config(
                    tmp_path, kind="level_fractions", n_values=[60, 120], p_or_q=[0.1, 0.3],
                    trials=2, caps={}, sources_per_graph=10, threads=threads,
                    output_path=str(path),
                )
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") > 5  # rows from every cell, not only the header

    def test_threshold_kind_deterministic(self, tmp_path):
        kw = dict(
            kind="threshold_sweep", n_values=[16], p_or_q=[0.5], trials=6,
            caps={}, m_values=[2, 6, 10],
        )
        run_experiment(base_config(tmp_path, output_path=str(tmp_path / "a.csv"), **kw))
        run_experiment(
            base_config(tmp_path, output_path=str(tmp_path / "b.csv"), threads=3, **kw)
        )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "kind, worker",
    [("md_smd_sweep", "_run_trial"), ("threshold_sweep", "_run_threshold_cell"), ("level_fractions", "_run_level_cell")],
)
def test_missing_output_directory_fails_before_any_trial(tmp_path, monkeypatch, kind, worker):
    """The output directory is checked before the runner starts: no trial
    or cell runs, so the error does not wait for the whole sweep."""
    ran = []
    work = getattr(experiments, worker)
    monkeypatch.setattr(experiments, worker, lambda cfg, task: ran.append(task) or work(cfg, task))
    cfg = base_config(tmp_path, kind=kind, caps={}, output_path=str(tmp_path / "missing" / "out.csv"))
    with pytest.raises(OSError, match="missing"):
        run_experiment(cfg)
    assert ran == []
    assert not (tmp_path / "missing").exists()


def test_sweep_work_loads_no_module_lazily():
    """A trial or cell of each sweep kind loads no module that the sweep's
    imports did not: a lazy import (``np.unique`` without index or count
    outputs loads numpy.ma, about 10 ms) would be paid again by every
    freshly forked pool worker.  Runs in a fresh interpreter, whose
    sys.modules the test process has not filled."""
    script = (
        "import json, sys\n"
        "import numpy.random\n"
        "from seqlocate import experiments as ex\n"
        "before = set(sys.modules)\n"
        "common = dict(trials=2, base_seed=3, output_path='unused.csv')\n"
        "ex._run_trial(ex.ExperimentConfig(kind='md_smd_sweep', n_values=[14], p_or_q=[0.4],\n"
        "    caps={'exact_n_limit': 14}, **common), (14, 0.4, 0))\n"
        "ex._run_level_cell(ex.ExperimentConfig(kind='level_fractions', n_values=[60],\n"
        "    p_or_q=[0.2], sources_per_graph=10, **common), (60, 0.2))\n"
        "ex._run_threshold_cell(ex.ExperimentConfig(kind='threshold_sweep', n_values=[20],\n"
        "    p_or_q=[0.3], m_values=[8], **common), (20, 0.3, 8))\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
