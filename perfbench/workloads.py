"""The benchmark's workloads: inputs, one timed call per unit, output checks.

A unit is one timed call into the package. A sweep unit is one
``seqlocate sweep`` dispatch over every n and carries its trials as items; an
exact unit is one instance run through every exact solver and carries one
item. A round is a fixed list of units. Each workload has a pool of rounds
whose outputs were recorded in ``expected.json``; the workload seed picks
the order in which a run walks that pool, so every output can be checked.
A run cycles through the pool, so a pool smaller than a run's rounds is
timed more than once per run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seqlocate import cli, ermodel, game, graphs, localization, matrices

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Sweep base seeds and exact-instance seeds are offsets into these ranges,
# so that pool entry i is the same input on every machine.
SWEEP_SEED_BASE = 7_000_000
EXACT_SEED_BASE = 9_000_000


@dataclass(frozen=True)
class Unit:
    key: str
    items: int


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SweepWorkload:
    """``md_smd_sweep`` through ``cli.dispatch``, one config per pool entry.

    A config holds every n, as the Tier-1 trend sweep does, so one call's
    worker pool gets ``trials * len(n_values)`` trials of mixed sizes.
    """

    kind = "sweep"

    def __init__(self, name: str, n_values, p: float, trials: int, pool_size: int) -> None:
        self.name = name
        self.n_values = list(n_values)
        self.p = p
        self.trials = trials
        self.pool_size = pool_size

    def round_units(self, entry: int) -> list[Unit]:
        return [Unit(f"e{entry}", self.trials * len(self.n_values))]

    def build_inputs(self, workdir: Path) -> dict:
        """Write one sweep config file per unit; return unit key -> paths."""
        inputs = {}
        for entry in range(self.pool_size):
            for unit in self.round_units(entry):
                out = workdir / f"{self.name}-{unit.key}.csv"
                cfg = {
                    "kind": "md_smd_sweep",
                    "n_values": self.n_values,
                    "p_or_q": [self.p],
                    "trials": self.trials,
                    "base_seed": SWEEP_SEED_BASE + entry,
                    "caps": {"exact_n_limit": 0},
                    "output_path": str(out),
                }
                cfg_path = workdir / f"{self.name}-{unit.key}.json"
                cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
                inputs[unit.key] = (cfg_path, out)
        return inputs

    def run_unit(self, inputs: dict, unit: Unit, threads: int):
        cfg_path, _ = inputs[unit.key]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.dispatch(["sweep", "--config", str(cfg_path), "--threads", str(threads)])

    def collect(self, inputs: dict, unit: Unit, exit_code) -> dict:
        """Digest the CSVs the call wrote, then delete them so that a later
        call cannot pass by leaving this call's files in place."""
        _, out = inputs[unit.key]
        summary = out.with_name(out.stem + ".summary" + out.suffix)
        observed = {"exit": exit_code}
        for label, path in (("trials_sha256", out), ("summary_sha256", summary)):
            observed[label] = _sha256(path.read_bytes()) if path.exists() else None
            path.unlink(missing_ok=True)
        return observed

    def invariant_errors(self, unit: Unit, observed: dict) -> list[str]:
        return [] if observed["exit"] == 0 else [f"exit code {observed['exit']}"]


def _connected_gnp(n: int, p: float, seed: int) -> graphs.Graph:
    attempt = 0
    while True:
        g = ermodel.sample_gnp(n, p, seed + 1_000_003 * attempt)
        if graphs.is_connected(g):
            return g
        attempt += 1


def _distinct_bernoulli(m: int, n: int, q: float, seed: int) -> matrices.BinaryMatrix:
    attempt = 0
    while True:
        a = matrices.sample_bernoulli(m, n, q, seed + 1_000_003 * attempt)
        if matrices.columns_pairwise_distinct(a):
            return a
        attempt += 1


class ExactWorkload:
    """Exact game values on small G(n, 0.3) graphs and 14x64 matrices.

    A round holds one graph per size and two matrices. With one matrix the
    run's median latency fell where the n=24 graphs and the matrices
    overlap, and moved by 30% from run to run. With two matrices it falls
    inside the matrix group.

    The pool is small enough that a run times every instance several
    times. Solve times vary up to threefold between instances of one size,
    so a run that drew a few rounds from a large pool measured its draw as
    much as the code; a small pool walked whole has no such term. The pool
    size is odd so that a one-worker run, which moves to the other CPU every
    round, times each instance on both CPUs.
    """

    kind = "exact"
    graph_ns = (20, 24, 28, 32)
    graph_p = 0.3
    matrix_shape = (14, 64)
    matrix_q = 0.5
    matrices_per_round = 2

    def __init__(self, name: str, pool_size: int) -> None:
        self.name = name
        self.pool_size = pool_size

    def round_units(self, entry: int) -> list[Unit]:
        m, n = self.matrix_shape
        units = [Unit(f"g{gn}-e{entry}", 1) for gn in self.graph_ns]
        return units + [Unit(f"m{m}x{n}.{j}-e{entry}", 1) for j in range(self.matrices_per_round)]

    def build_inputs(self, workdir: Path) -> dict:
        """Sample every instance of the pool; return unit key -> (instance, digest)."""
        inputs = {}
        m, n = self.matrix_shape
        for entry in range(self.pool_size):
            seed = EXACT_SEED_BASE + 10 * entry
            for k, unit in enumerate(self.round_units(entry)):
                if k < len(self.graph_ns):
                    g = _connected_gnp(self.graph_ns[k], self.graph_p, seed + k)
                    inputs[unit.key] = (g, _sha256(graphs.write_edge_list(g).encode())[:16])
                else:
                    a = _distinct_bernoulli(m, n, self.matrix_q, seed + k)
                    inputs[unit.key] = (a, _sha256(matrices.write_matrix(a).encode())[:16])
        return inputs

    def run_unit(self, inputs: dict, unit: Unit, threads: int):
        instance, _ = inputs[unit.key]
        if isinstance(instance, graphs.Graph):
            return (
                game.smd_exact(instance),
                game.smd_maxgain_worstcase(instance),
                localization.md_exact(instance)[0],
            )
        return (
            matrices.sqc_exact(instance),
            matrices.sqc_maxgain_worstcase(instance),
            matrices.qc_exact(instance)[0],
            len(matrices.qc_greedy(instance)),
        )

    def collect(self, inputs: dict, unit: Unit, raw) -> dict:
        instance, digest = inputs[unit.key]
        if isinstance(instance, graphs.Graph):
            names = ("smd_exact", "smd_maxgain_worstcase", "md_exact")
        else:
            names = ("sqc_exact", "sqc_maxgain_worstcase", "qc_exact", "qc_greedy")
        return {"input_sha256": digest, **{k: int(v) for k, v in zip(names, raw)}}

    def invariant_errors(self, unit: Unit, observed: dict) -> list[str]:
        """The orderings every exact instance must satisfy whatever the code."""
        errors = []
        if "smd_exact" in observed:
            s, w, m = observed["smd_exact"], observed["smd_maxgain_worstcase"], observed["md_exact"]
            n = int(unit.key[1:].split("-")[0])
            if not s <= w:
                errors.append(f"smd_exact {s} > smd_maxgain_worstcase {w}")
            if not s <= m <= n - 1:
                errors.append(f"not smd_exact {s} <= md_exact {m} <= n-1 {n - 1}")
        else:
            s, w, q, greedy = (observed[k] for k in
                               ("sqc_exact", "sqc_maxgain_worstcase", "qc_exact", "qc_greedy"))
            rows = self.matrix_shape[0]
            if not s <= w:
                errors.append(f"sqc_exact {s} > sqc_maxgain_worstcase {w}")
            if not s <= q <= greedy <= rows:
                errors.append(f"not sqc_exact {s} <= qc_exact {q} <= qc_greedy {greedy} <= rows {rows}")
        return errors


WORKLOADS = {
    # Tier-1 trend-sweep traffic, 2 trials per n per call instead of 20 so
    # that a 45 s run holds several calls; the only workload on the pool.
    "sweep-dense": SweepWorkload("sweep-dense", (250, 500, 1000, 2000), 0.3, trials=2,
                                 pool_size=24),
    # Bitset minimax and subset search; bypasses APSP at scale, greedy and pool.
    # 18 instances, each timed about eight times in a 45 s run.
    "exact-small": ExactWorkload("exact-small", pool_size=3),
}


def round_order(workload, seed: int) -> list[int]:
    """Pool entries in the order a run with this seed walks them."""
    return [int(e) for e in np.random.default_rng(seed).permutation(workload.pool_size)]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def output_errors(workload, unit: Unit, observed: dict, expected: dict) -> list[str]:
    """Mismatches against the recorded outputs, plus broken invariants."""
    errors = list(workload.invariant_errors(unit, observed))
    want = expected.get(workload.name, {}).get(unit.key)
    if want is None:
        errors.append("no recorded output")
    else:
        for k, v in want.items():
            if observed.get(k) != v:
                errors.append(f"{k}: got {observed.get(k)!r}, recorded {v!r}")
    return errors
