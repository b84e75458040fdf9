"""Command-line interface: outputs, exit codes, seed handling."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from seqlocate import experiments, graphs
from seqlocate import read_edge_list, read_matrix, write_edge_list, write_matrix
from seqlocate.cli import dispatch
from conftest import cycle_graph

import numpy as np

from seqlocate import BinaryMatrix


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(write_edge_list(cycle_graph(4)))
    return str(path)


@pytest.fixture
def six_cycle_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(write_edge_list(cycle_graph(6)))
    return str(path)


@pytest.fixture
def balanced_matrix_file(tmp_path):
    bits = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)
    path = tmp_path / "bal.txt"
    path.write_text(write_matrix(BinaryMatrix(2, 4, bits)))
    return str(path)


class TestGen:
    def test_deterministic_with_seed(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        code, _, err = run_cli(
            capsys, "gen", "--n", "30", "--p", "0.2", "--seed", "7", "--out", str(out1)
        )
        assert code == 0
        assert err == "seed: 7\n"
        run_cli(capsys, "gen", "--n", "30", "--p", "0.2", "--seed", "7", "--out", str(out2))
        assert out1.read_text() == out2.read_text()
        g = read_edge_list(out1.read_text())
        assert g.n == 30

    def test_directory_output_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--n", "10", "--p", "0.5", "--seed", "1", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("seed: 1\nseqlocate: ")

    def test_random_seed_announced(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--n", "10", "--p", "0.5")
        assert code == 0
        assert err.startswith("seed: ")
        assert int(err.split(":")[1]) >= 0
        assert read_edge_list(out).n == 10

    def test_bad_probability_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "10", "--p", "1.5", "--seed", "1")
        assert code == 2
        assert "seqlocate:" in err


class TestMd:
    def test_greedy_default(self, capsys, cycle_file):
        code, out, _ = run_cli(capsys, "md", "--in", cycle_file)
        assert code == 0
        assert json.loads(out) == {"md": 2, "witness": [0, 1], "method": "greedy"}

    def test_exact(self, capsys, cycle_file):
        code, out, _ = run_cli(capsys, "md", "--in", cycle_file, "--exact-cap", "3")
        assert code == 0
        assert json.loads(out) == {"md": 2, "witness": [0, 1], "method": "exact"}

    def test_cap_exceeded_is_domain_error(self, capsys, cycle_file):
        code, out, _ = run_cli(capsys, "md", "--in", cycle_file, "--exact-cap", "1")
        assert code == 3
        assert json.loads(out)["kind"] == "CapExceededError"

    def test_cap_zero_is_exceeded_not_invalid(self, capsys, six_cycle_file):
        code, out, _ = run_cli(capsys, "md", "--in", six_cycle_file, "--exact-cap", "0")
        assert code == 3
        assert json.loads(out)["kind"] == "CapExceededError"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "md", "--in", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "seqlocate:" in err

    def test_directory_input_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "md", "--in", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("seqlocate: ")

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 x\n")
        code, out, err = run_cli(capsys, "md", "--in", str(path))
        assert code == 3
        assert json.loads(out) == {"error": "bad edge line '0 x'", "kind": "GraphFormatError"}
        assert err == ""

    def test_disconnected_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        code, out, _ = run_cli(capsys, "md", "--in", str(path))
        assert code == 3
        assert json.loads(out)["kind"] == "DisconnectedGraphError"


class TestSmd:
    def test_exact(self, capsys, cycle_file):
        code, out, _ = run_cli(capsys, "smd", "--in", cycle_file, "--mode", "exact")
        assert code == 0
        assert json.loads(out) == {"smd": 2, "mode": "exact"}

    def test_maxgain_worst(self, capsys, cycle_file):
        code, out, _ = run_cli(capsys, "smd", "--in", cycle_file, "--mode", "maxgain-worst")
        assert code == 0
        assert json.loads(out)["smd"] == 2

    def test_greedy_with_transcript(self, capsys, cycle_file):
        code, out, _ = run_cli(
            capsys, "smd", "--in", cycle_file, "--mode", "maxgain-greedy", "--transcript"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["resolved"] is True
        assert payload["smd"] == len(payload["transcript"]) == 2
        assert payload["transcript"][0] == {"step": 1, "query": 0, "answer": 1, "candidates": 2}

    @pytest.mark.parametrize("mode", ["exact", "maxgain-worst"])
    def test_transcript_outside_greedy_is_usage_error(self, capsys, cycle_file, mode):
        code, out, err = run_cli(capsys, "smd", "--in", cycle_file, "--mode", mode, "--transcript")
        assert code == 2
        assert out == ""
        assert f"--transcript needs --mode maxgain-greedy, not {mode}" in err

    def test_transcript_checked_before_reading_file(self, capsys, tmp_path):
        """The flag error wins over a malformed file: it is found first."""
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 1 2\n")
        code, out, err = run_cli(capsys, "smd", "--in", str(path), "--mode", "exact", "--transcript")
        assert code == 2
        assert out == ""
        assert err == "seqlocate: --transcript needs --mode maxgain-greedy, not exact\n"

    def test_negative_cap_is_usage_error(self, capsys, six_cycle_file):
        code, _, err = run_cli(
            capsys, "smd", "--in", six_cycle_file, "--mode", "exact", "--cap", "-1"
        )
        assert code == 2
        assert "seqlocate:" in err

    def test_mode_required(self, capsys, cycle_file):
        code, _, _ = run_cli(capsys, "smd", "--in", cycle_file)
        assert code == 2


class TestGame:
    def test_json_lines_transcript(self, capsys, cycle_file):
        code, out, _ = run_cli(capsys, "game", "--in", cycle_file, "--target", "3")
        assert code == 0
        steps = [json.loads(x) for x in out.splitlines()]
        assert steps == [
            {"step": 1, "query": 0, "answer": 1, "candidates": 2},
            {"step": 2, "query": 1, "answer": 2, "candidates": 1},
        ]

    def test_target_out_of_range(self, capsys, cycle_file, monkeypatch):
        """A target outside the graph is a bad flag (exit 2); the file is
        fine, and the all-pairs BFS never runs."""
        calls = []
        monkeypatch.setattr(graphs, "distance_matrix", lambda g: calls.append(g.n))
        for target in ("9", "4", "-1"):
            code, out, err = run_cli(capsys, "game", "--in", cycle_file, "--target", target)
            assert code == 2
            assert out == ""
            assert err == f"seqlocate: target {target} out of range for n=4\n"
        assert calls == []


class TestParams:
    def test_valid_regime_payload(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--n", "1024", "--p", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 512.0
        assert payload["i"] == 0
        assert payload["gamma_smd"] == 0.5
        assert payload["bounds"]["smd_upper"] == 10.0
        assert payload["level_fractions"] == {"1": 0.5, "2": 0.5}

    def test_invalid_regime_nulls(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--n", "50", "--p", "0.95")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime_valid"] is False
        assert payload["bounds"] is None
        assert payload["level_fractions"] is None

    def test_force_i(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--n", "5000", "--p", "0.002", "--force-i", "1")
        assert code == 0
        assert json.loads(out)["i"] == 1

    def test_degenerate_force_i_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "params", "--n", "5000", "--p", "0.02", "--force-i", "2")
        assert code == 2
        assert "degenerate" in err

    def test_bad_n_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "params", "--n", "2", "--p", "0.5")
        assert code == 2


class TestMatrix:
    def test_sample_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "m.txt"
        code, _, err = run_cli(
            capsys,
            "matrix", "sample", "--m", "6", "--n", "9", "--q", "0.5",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        assert err == "seed: 3\n"
        a = read_matrix(out_path.read_text())
        assert (a.m, a.n) == (6, 9)

    def test_qc_exact(self, capsys, balanced_matrix_file):
        code, out, _ = run_cli(capsys, "matrix", "qc", "--in", balanced_matrix_file)
        assert code == 0
        assert json.loads(out) == {"qc": 2, "rows": [0, 1], "method": "exact"}

    def test_qc_greedy(self, capsys, balanced_matrix_file):
        code, out, _ = run_cli(capsys, "matrix", "qc", "--in", balanced_matrix_file, "--greedy")
        assert code == 0
        assert json.loads(out)["method"] == "greedy"

    def test_qc_greedy_with_exact_cap_is_usage_error(self, capsys, balanced_matrix_file):
        code, out, err = run_cli(
            capsys, "matrix", "qc", "--in", balanced_matrix_file, "--greedy", "--exact-cap", "3"
        )
        assert code == 2
        assert out == ""
        assert err == "seqlocate: --exact-cap needs the exact search, not --greedy\n"

    @pytest.mark.parametrize("mode", ["exact", "maxgain-worst"])
    def test_sqc_exact(self, capsys, balanced_matrix_file, mode):
        code, out, _ = run_cli(
            capsys, "matrix", "sqc", "--in", balanced_matrix_file, "--mode", mode
        )
        assert code == 0
        assert json.loads(out) == {"sqc": 2, "mode": mode}

    def test_qc_one_column_within_cap_zero(self, capsys, tmp_path):
        path = tmp_path / "col.txt"
        path.write_text("3 1\n0\n1\n1\n")
        code, out, _ = run_cli(capsys, "matrix", "qc", "--in", str(path), "--exact-cap", "0")
        assert code == 0
        assert json.loads(out) == {"qc": 0, "rows": [], "method": "exact"}

    def test_sqc_play(self, capsys, balanced_matrix_file):
        code, out, _ = run_cli(
            capsys, "matrix", "sqc", "--in", balanced_matrix_file, "--mode", "maxgain-greedy"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["resolved"] is True
        assert payload["sqc"] == 2

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n12\n00\n")
        code, out, err = run_cli(capsys, "matrix", "qc", "--in", str(path))
        assert code == 3
        assert json.loads(out) == {"error": "bad row '12', expected 2 0/1 digits", "kind": "MatrixFormatError"}
        assert err == ""

    def test_equal_columns_domain_error(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 2\n11\n00\n")
        code, out, _ = run_cli(capsys, "matrix", "qc", "--in", str(path))
        assert code == 3
        assert json.loads(out)["kind"] == "UndefinedQueryComplexityError"

    def test_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "threshold", "--n", "1024", "--q", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold_rows"] == 20.0
        assert payload["gamma_sqc"] == 0.5
        assert payload["gamma_qc"] == pytest.approx(0.7071067811865476)


class TestSweep:
    def write_config(self, tmp_path, threads=1):
        cfg = {
            "kind": "md_smd_sweep",
            "n_values": [15],
            "p_or_q": [0.4],
            "trials": 2,
            "base_seed": 4,
            "caps": {"exact_n_limit": 0},
            "output_path": str(tmp_path / "out.csv"),
            "threads": threads,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_reports(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 2
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.summary.csv").exists()

    def test_threads_flag_overrides(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--threads", "2")
        assert code == 0

    def test_threads_env_fallback(self, capsys, tmp_path, monkeypatch):
        baseline = (tmp_path / "out.csv")
        cfg = self.write_config(tmp_path)
        run_cli(capsys, "sweep", "--config", str(cfg))
        expected = baseline.read_bytes()
        monkeypatch.setenv("SEQLOCATE_THREADS", "3")
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert baseline.read_bytes() == expected  # thread count never changes results

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_flag_below_one_usage_error(self, capsys, tmp_path, threads):
        cfg = self.write_config(tmp_path)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--threads", threads)
        assert code == 2
        assert "threads must be >= 1" in err
        assert not (tmp_path / "out.csv").exists()

    def test_threads_env_below_one_usage_error(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        monkeypatch.setenv("SEQLOCATE_THREADS", "0")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "threads must be >= 1" in err
        assert not (tmp_path / "out.csv").exists()

    def test_threads_env_not_an_integer_usage_error(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        monkeypatch.setenv("SEQLOCATE_THREADS", "abc")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert err == "seqlocate: SEQLOCATE_THREADS must be an integer, got 'abc'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_disconnected_in_worker_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "md_smd_sweep", "n_values": [30], "p_or_q": [0.001], "trials": 2,
            "base_seed": 99, "output_path": str(tmp_path / "out.csv"),
        }))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--threads", "2")
        assert code == 3
        assert json.loads(out) == {
            "error": "cell (n=30, p=0.001): disconnected after 10 resamples",
            "kind": "ExperimentError",
        }
        assert not (tmp_path / "out.csv").exists()

    def test_threads_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        monkeypatch.setenv("SEQLOCATE_THREADS", "0")
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--threads", "2")
        assert code == 0

    def test_config_missing_fields_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "md_smd_sweep", "n_values": [20]}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert "missing config fields" in err

    def test_config_not_an_object_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "caps", [{"exact_n_limt": 20}, {"step_cap": 0}, {"exact_n_limit": -1}], ids=str
    )
    def test_bad_caps_usage_error_before_any_output(self, capsys, tmp_path, caps):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["caps"] = caps
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert out == ""
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", "3"),
            ("n_values", "20"),
            ("caps", {"step_cap": "5"}),
            ("kind", 5),
            ("base_seed", "x"),
            ("threads", 2.5),
            ("p_or_q", 5),
            ("output_path", None),
        ],
        ids=str,
    )
    def test_wrong_json_type_usage_error_before_any_output(self, capsys, tmp_path, field, value):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg[field] = value
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("seqlocate: ")
        assert not (tmp_path / "out.csv").exists()

    def test_cell_outside_p_range_usage_error_before_any_trial(self, capsys, tmp_path, monkeypatch):
        path = self.write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg.update(n_values=[250, 500, 1000], p_or_q="0.001/N^-1")
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(experiments, "_run_trial", lambda cfg, task: pytest.fail("trial ran"))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "seqlocate: cell n=1000, p=1.0: need 0 < p < 1\n"
        assert not (tmp_path / "out.csv").exists()

    def test_missing_config_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 2


_NEGATIVE_CAP = "cap must be >= 0, got -1"
_ZERO_STEP_CAP = "step cap must be >= 1, got 0"
_BAD_CAPS = [
    (["md", "--exact-cap", "-1"], _NEGATIVE_CAP),
    (["smd", "--mode", "exact", "--cap", "-1"], _NEGATIVE_CAP),
    (["smd", "--mode", "maxgain-worst", "--cap", "-1"], _NEGATIVE_CAP),
    (["smd", "--mode", "maxgain-greedy", "--cap", "0"], _ZERO_STEP_CAP),
    (["game", "--target", "0", "--cap", "0"], _ZERO_STEP_CAP),
    (["matrix", "qc", "--exact-cap", "-1"], _NEGATIVE_CAP),
    (["matrix", "sqc", "--mode", "exact", "--cap", "-1"], _NEGATIVE_CAP),
    (["matrix", "sqc", "--mode", "maxgain-worst", "--cap", "-1"], _NEGATIVE_CAP),
    (["matrix", "sqc", "--mode", "maxgain-greedy", "--cap", "0"], _ZERO_STEP_CAP),
]


@pytest.mark.parametrize("argv, message", _BAD_CAPS, ids=[" ".join(argv) for argv, _ in _BAD_CAPS])
@pytest.mark.parametrize("source", ["missing", "bad"])
def test_bad_cap_rejected_before_input_is_read(capsys, tmp_path, argv, message, source):
    """A cap outside its rule is a usage error (exit 2) found before the
    input is opened: a missing file and an input with a domain error
    (a disconnected graph, a matrix with equal columns) give the same
    message."""
    path = tmp_path / "in.txt"
    if source == "bad":
        path.write_text("2 3\n011\n011\n" if argv[0] == "matrix" else "4 2\n0 1\n2 3\n")
    code, out, err = run_cli(capsys, *argv, "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"seqlocate: {message}\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "params", "--n", "10", "--p", "0.5", "--wat")[0] == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "seqlocate.cli", "params", "--n", "1024", "--p", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma_smd"] == 0.5


def test_runtime_imports_are_numpy_only():
    """Importing the package and its CLI loads no third-party module but
    numpy, and not the process-pool modules, which ``_map_ordered`` imports
    only when it starts a pool.  The set is taken against what the bare
    interpreter had already loaded, since site hooks may load modules of
    their own."""
    script = (
        "import json, sys\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import seqlocate, seqlocate.cli\n"
        "new = {m.partition('.')[0] for m in sys.modules} - before\n"
        "print(json.dumps(sorted(new)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    new = set(json.loads(proc.stdout))
    assert new - sys.stdlib_module_names == {"numpy", "seqlocate"}
    assert not new & {"multiprocessing", "concurrent"}


def test_sweep_missing_output_directory_usage_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    out = tmp_path / "missing" / "out.csv"
    path.write_text(json.dumps({
        "kind": "md_smd_sweep", "n_values": [20], "p_or_q": [0.4], "trials": 2,
        "base_seed": 1, "output_path": str(out),
    }))
    monkeypatch.setattr(experiments, "_run_trial", lambda cfg, task: pytest.fail("trial ran"))
    code, stdout, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert stdout == ""
    assert err == f"seqlocate: output directory {str(out.parent)!r} does not exist\n"
