"""Monte Carlo harness: dimension sweeps, threshold sweeps, level fractions.

Every trial derives its own RNG seed from the base seed and the cell
coordinates, so trials are independent of execution order and worker
count, and re-running a config reproduces the output byte for byte.  With
more than one worker, trials (or cells) run in forked worker processes,
not threads: a trial makes thousands of numpy calls, each of which must
take the GIL back when it returns, and two threads spent much of their
time waiting on each other for it.  The pool hands out the largest tasks
first (by n, or by m * n for a threshold cell), but results come back in
task order, and a failure reports the first failing task in task order.
Wall-clock timings are kept on the in-memory records for diagnostics but
never serialized, precisely to keep reruns byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from .ermodel import bound_prediction, er_parameters, predicted_level_fractions, sample_gnp
from .game import _BITSET_LIMIT, SMD_ESTIMATE_POLICIES, play_game, smd_exact
from .graphs import Graph, distance_matrix, distances_from_sources, is_connected
from .localization import md_greedy
from .matrices import columns_pairwise_distinct, sample_bernoulli, qc_threshold

KIND_MD_SMD_SWEEP = "md_smd_sweep"
KIND_THRESHOLD_SWEEP = "threshold_sweep"
KIND_LEVEL_FRACTIONS = "level_fractions"
_KINDS = (KIND_MD_SMD_SWEEP, KIND_THRESHOLD_SWEEP, KIND_LEVEL_FRACTIONS)

_MAX_RESAMPLES = 10

_CAP_KEYS = ("step_cap", "exact_n_limit")

_NUMBER = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"  # a token float() reads
_P_RULE = re.compile(rf"^\s*{_NUMBER}\s*/\s*N\^\s*{_NUMBER}\s*$")


def _check_ints(what: str, values) -> None:
    """ValueError unless ``values`` is a list of ints, naming ``what`` and
    the first entry that is not one; a bool (JSON true or false) is not."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{what} must be an integer, got {v!r}")


class ExperimentError(RuntimeError):
    """A sweep cell could not be completed (e.g. persistent disconnection)."""


@dataclass
class ExperimentConfig:
    """One experiment: a grid of cells plus execution knobs.

    ``p_or_q`` is either a list of numbers applied to every n, or a
    parametric rule string "c/N^a" evaluated per n (not for threshold
    sweeps); every p it gives must lie in (0, 1), and every threshold q in
    [0, 1], or in (0, 1) when ``m_values`` is null.  ``output_path`` is a
    string.  ``caps`` takes only "step_cap" (per-game step limit, None or
    >= 1; default n) and "exact_n_limit" (run the exact game value as well
    for n at or below it, >= 0; default 0, off; in an md_smd sweep it may
    not reach an n above the exact solvers' target limit).  Every check
    runs here, so a bad config fails before any cell runs.
    ``m_values`` (threshold sweeps) defaults to a grid straddling the
    predicted threshold.  ``sources_per_graph`` applies to level-fraction
    runs.
    """

    kind: str
    n_values: list[int]
    p_or_q: list[float] | str
    trials: int
    base_seed: int
    caps: dict = field(default_factory=dict)
    output_path: str = "sweep.csv"
    m_values: list[int] | None = None
    sources_per_graph: int = 50
    threads: int = 1

    def __post_init__(self) -> None:
        kind = self.kind.lower().replace("-", "_") if isinstance(self.kind, str) else None
        if kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.kind = kind
        for name in ("trials", "base_seed", "sources_per_graph", "threads"):
            _check_ints(name, [getattr(self, name)])
        _check_ints("n_values", self.n_values)
        _check_ints("m_values", self.m_values or [])
        if not self.n_values or any(n < 3 for n in self.n_values):
            raise ValueError("n_values must be nonempty with every n >= 3")
        for name in ("trials", "threads", "sources_per_graph"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if isinstance(self.p_or_q, str):
            if _P_RULE.match(self.p_or_q) is None:
                raise ValueError(f"bad p rule {self.p_or_q!r}, expected 'c/N^a'")
            if self.kind == KIND_THRESHOLD_SWEEP:
                raise ValueError("threshold sweeps take explicit q values, not a rule")
        elif not isinstance(self.p_or_q, list) or not self.p_or_q:
            raise ValueError(f"p_or_q must be a rule string or a nonempty list, got {self.p_or_q!r}")
        else:
            for v in self.p_or_q:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ValueError(f"p_or_q entries must be numbers, got {v!r}")
        if not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        for m in self.m_values or ():
            if m < 0:
                raise ValueError(f"row count must be >= 0, got {m}")
        if not isinstance(self.caps, dict) or not set(self.caps) <= set(_CAP_KEYS):
            raise ValueError(f"caps takes only the keys {list(_CAP_KEYS)}, got {self.caps!r}")
        _check_ints("step_cap", [] if self.step_cap is None else [self.step_cap])
        _check_ints("exact_n_limit", [self.exact_n_limit])
        if self.step_cap is not None and self.step_cap < 1:
            raise ValueError(f"step_cap must be null or >= 1, got {self.step_cap}")
        if self.exact_n_limit < 0:
            raise ValueError(f"exact_n_limit must be >= 0, got {self.exact_n_limit}")
        try:
            cells = self.cells()
        except ArithmeticError as exc:  # n**a out of float range in a rule "c/N^a"
            raise ValueError(f"p rule {self.p_or_q!r}: {exc}") from None
        for n, v in cells:
            if self.kind != KIND_THRESHOLD_SWEEP:
                if not 0 < v < 1:
                    raise ValueError(f"cell n={n}, p={v}: need 0 < p < 1")
            elif not 0 <= v <= 1:
                raise ValueError(f"cell n={n}, q={v}: need 0 <= q <= 1")
            elif self.m_values is None and v in (0, 1):
                raise ValueError(f"cell n={n}, q={v}: the default m grid needs 0 < q < 1")
        past = [n for n in self.n_values if _BITSET_LIMIT < n <= self.exact_n_limit]
        if self.kind == KIND_MD_SMD_SWEEP and past:
            raise ValueError(
                f"exact_n_limit {self.exact_n_limit} reaches n={past[0]}, but the exact "
                f"solvers handle at most {_BITSET_LIMIT} targets"
            )

    def p_values_for(self, n: int) -> list[float]:
        if isinstance(self.p_or_q, str):
            match = _P_RULE.match(self.p_or_q)
            coeff, power = float(match.group(1)), float(match.group(2))
            return [coeff / n**power]
        return [float(p) for p in self.p_or_q]

    def cells(self) -> list[tuple[int, float]]:
        """The grid's (n, p) cells, n-major, in ``n_values`` order."""
        return [(n, p) for n in self.n_values for p in self.p_values_for(n)]

    @property
    def step_cap(self) -> int | None:
        return self.caps.get("step_cap")

    @property
    def exact_n_limit(self) -> int:
        return self.caps.get("exact_n_limit", 0)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = [
            f.name
            for f in fields(cls)
            if f.name not in data and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def derive_trial_seed(base_seed: int, *parts) -> int:
    """Stable per-trial seed: base_seed XOR a hash of the cell coordinates.

    The hash must not vary across processes or runs, so it is built from a
    cryptographic digest of the repr of the parts, not from ``hash()``.
    """
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def _csv_columns(row_type) -> list[str]:
    """The CSV columns of a row dataclass: its fields in declaration order,
    less those whose metadata marks them in-memory."""
    return [f.name for f in fields(row_type) if not f.metadata.get("in_memory")]


@dataclass
class TrialRecord:
    n: int
    p: float
    trial_index: int
    seed: int
    md_greedy_size: int
    smd_estimate_steps: int
    smd_exact: int | None
    bound_lower: float | None
    bound_upper: float | None
    md_predicted: float | None
    wall_time_ms: float = field(metadata={"in_memory": True})
    # |T| before play followed by |T| after each step.
    candidate_trajectory: list[int] = field(default_factory=list, metadata={"in_memory": True})


@dataclass
class SummaryRow:
    n: int
    p: float
    trials: int
    md_greedy_mean: float
    md_greedy_stderr: float
    smd_estimate_mean: float
    smd_estimate_stderr: float
    bound_lower: float | None
    bound_upper: float | None
    md_predicted: float | None
    estimator: str = "maxgain-vs-greedy-adversary-lower-estimate"


@dataclass
class ThresholdRow:
    n: int
    q: float
    m: int
    trials: int
    p_distinct: float


@dataclass
class LevelFractionRow:
    n: int
    p: float
    level: int
    empirical_fraction: float
    predicted_fraction: float | None
    ratio_max_deviation: float | None  # only for levels at or below the regime index


TRIAL_CSV_FIELDS = _csv_columns(TrialRecord)
SUMMARY_CSV_FIELDS = _csv_columns(SummaryRow)
THRESHOLD_CSV_FIELDS = _csv_columns(ThresholdRow)
LEVEL_CSV_FIELDS = _csv_columns(LevelFractionRow)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_csv(rows, path, fields) -> None:
    """Write dataclass rows with a fixed column order and LF endings.

    Floats carry 6 significant digits; identical rows always serialize to
    identical bytes.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_value(getattr(row, f)) for f in fields])


def summary_path_for(output_path) -> Path:
    p = Path(output_path)
    return p.with_name(p.stem + ".summary" + p.suffix)


def _map_ordered(fn, cfg, tasks, threads: int, size):
    """Apply ``fn(cfg, task)`` to tasks and return the results in task order.

    With more than one worker and task, the tasks run in a pool of
    ``min(threads, len(tasks))`` forked processes, so ``fn``, ``cfg``, the
    tasks and the results must pickle; an exception raised in a worker
    reaches the caller with its type and message.  Tasks are handed out
    largest ``size(task)`` first, ties in task order, so that no worker is
    left alone with the largest trial at the end (longest-first list
    scheduling); results are still collected in task order, so the
    exception raised is the one from the first failing task in task order.
    One worker runs the tasks in task order.  Fork is named explicitly
    (Python 3.14 makes forkserver the Linux default) so that workers start
    without re-importing numpy; a fork-context pool forks every worker
    before it starts its own threads.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [fn(cfg, task) for task in tasks]
    # Imported here: at module load they would add about 20 ms to every CLI start.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(threads, len(tasks)), mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [None] * len(tasks)
        for i in sorted(range(len(tasks)), key=lambda i: -size(tasks[i])):
            futures[i] = pool.submit(fn, cfg, tasks[i])
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:  # after a failure, start no task still queued
                f.cancel()


def _sample_connected(n: int, p: float, rng: np.random.Generator) -> Graph:
    for _ in range(_MAX_RESAMPLES + 1):
        g = sample_gnp(n, p, rng)
        if is_connected(g):
            return g
    raise ExperimentError(
        f"cell (n={n}, p={p}): disconnected after {_MAX_RESAMPLES} resamples"
    )


def _stderr(values: list[int]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _run_trial(cfg: ExperimentConfig, task) -> TrialRecord:
    """One md_smd_sweep trial: sample, greedy resolving set, played game
    and, up to ``exact_n_limit``, the exact game value, all on one
    distance matrix."""
    n, p, trial = task
    seed = derive_trial_seed(cfg.base_seed, "md_smd", n, p, trial)
    rng = np.random.default_rng(seed)
    started = perf_counter()
    g = _sample_connected(n, p, rng)
    dm = distance_matrix(g)
    greedy = md_greedy(g, dm=dm)
    transcript = play_game(dm, *SMD_ESTIMATE_POLICIES, step_cap=cfg.step_cap)
    exact = smd_exact(g, dm=dm) if n <= cfg.exact_n_limit else None
    params = er_parameters(n, p)
    if params.regime_valid:
        bounds = bound_prediction(params)
        lower, upper, md_pred = bounds.smd_lower, bounds.smd_upper, bounds.md_value
    else:
        lower = upper = md_pred = None
    return TrialRecord(
        n=n,
        p=p,
        trial_index=trial,
        seed=seed,
        md_greedy_size=len(greedy),
        smd_estimate_steps=transcript.num_steps,
        smd_exact=exact,
        bound_lower=lower,
        bound_upper=upper,
        md_predicted=md_pred,
        wall_time_ms=(perf_counter() - started) * 1e3,
        candidate_trajectory=transcript.candidate_sizes(),
    )


def run_md_smd_sweep(cfg: ExperimentConfig) -> tuple[list[TrialRecord], list[SummaryRow]]:
    """Greedy resolving-set size vs adaptive game length across the grid.

    Per trial: sample a connected G(n, p), run the greedy resolving set,
    and play MAX-GAIN against the greedy-max-cell adversary (a single
    played path, i.e. a lower-bound-flavored estimate of the worst case).
    Cells that stay disconnected after 10 resamples raise ExperimentError.
    """
    if cfg.kind != KIND_MD_SMD_SWEEP:
        raise ValueError(f"config kind is {cfg.kind!r}")
    cells = cfg.cells()
    tasks = [(n, p, t) for n, p in cells for t in range(cfg.trials)]
    records = _map_ordered(_run_trial, cfg, tasks, cfg.threads, size=lambda task: task[0])
    summaries = []
    for k, (n, p) in enumerate(cells):
        cell = records[k * cfg.trials : (k + 1) * cfg.trials]
        summaries.append(
            SummaryRow(
                n=n,
                p=p,
                trials=cfg.trials,
                md_greedy_mean=float(np.mean([r.md_greedy_size for r in cell])),
                md_greedy_stderr=_stderr([r.md_greedy_size for r in cell]),
                smd_estimate_mean=float(np.mean([r.smd_estimate_steps for r in cell])),
                smd_estimate_stderr=_stderr([r.smd_estimate_steps for r in cell]),
                bound_lower=cell[0].bound_lower,
                bound_upper=cell[0].bound_upper,
                md_predicted=cell[0].md_predicted,
            )
        )
    return records, summaries


def _default_m_grid(n: int, q: float) -> list[int]:
    center = qc_threshold(n, q)
    low = max(1, math.floor(0.6 * center))
    high = math.ceil(1.4 * center)
    return list(range(low, high + 1))


def _run_threshold_cell(cfg: ExperimentConfig, cell) -> ThresholdRow:
    """One threshold_sweep cell: the fraction of its trials with distinct columns."""
    n, q, m = cell
    if m == 0:
        return ThresholdRow(n=n, q=q, m=0, trials=cfg.trials, p_distinct=0.0)
    distinct = 0
    for trial in range(cfg.trials):
        seed = derive_trial_seed(cfg.base_seed, "threshold", n, q, m, trial)
        a = sample_bernoulli(m, n, q, seed)
        if columns_pairwise_distinct(a):
            distinct += 1
    return ThresholdRow(n=n, q=q, m=m, trials=cfg.trials, p_distinct=distinct / cfg.trials)


def run_threshold_sweep(cfg: ExperimentConfig) -> list[ThresholdRow]:
    """Fraction of Bernoulli(q) matrices with all columns distinct, per m.

    The m grid defaults to one straddling the predicted threshold.  m = 0
    needs no sampling: zero-row columns are all equal, so the fraction is 0.
    """
    if cfg.kind != KIND_THRESHOLD_SWEEP:
        raise ValueError(f"config kind is {cfg.kind!r}")
    cells = [
        (n, q, m)
        for n, q in cfg.cells()
        for m in (cfg.m_values if cfg.m_values is not None else _default_m_grid(n, q))
    ]
    return _map_ordered(_run_threshold_cell, cfg, cells, cfg.threads, size=lambda cell: cell[0] * cell[2])


def _run_level_cell(cfg: ExperimentConfig, cell) -> list[LevelFractionRow]:
    """One level_fractions cell: its rows, one per observed or predicted level."""
    n, p = cell
    params = er_parameters(n, p)
    predicted = predicted_level_fractions(params) if params.regime_valid else {}
    tree_levels = range(1, params.i + 1) if params.regime_valid else ()
    counts: dict[int, int] = {}
    total = 0
    worst_dev: dict[int, float] = {}
    for trial in range(cfg.trials):
        seed = derive_trial_seed(cfg.base_seed, "levels", n, p, trial)
        rng = np.random.default_rng(seed)
        g = _sample_connected(n, p, rng)
        k = min(cfg.sources_per_graph, n)
        sources = np.sort(rng.choice(n, size=k, replace=False))
        dist = distances_from_sources(g, sources)
        levels, level_counts = np.unique(dist, return_counts=True)
        for l, cnt in zip(levels, level_counts):
            counts[int(l)] = counts.get(int(l), 0) + int(cnt)
        total += dist.size
        for l in tree_levels:
            sizes = (dist == l).sum(axis=1)
            dev = float(np.abs(sizes / params.delta**l - 1.0).max())
            worst_dev[l] = max(worst_dev.get(l, 0.0), dev)
    rows = []
    for level in sorted(set(counts) | set(predicted)):
        if level == 0:
            continue  # the source itself, mass 1/n, not a prediction target
        rows.append(
            LevelFractionRow(
                n=n,
                p=p,
                level=level,
                empirical_fraction=counts.get(level, 0) / total,
                predicted_fraction=predicted.get(level),
                ratio_max_deviation=worst_dev.get(level),
            )
        )
    return rows


def run_level_fractions(cfg: ExperimentConfig) -> list[LevelFractionRow]:
    """Empirical distance-level fractions vs the predicted masses.

    Per cell: ``trials`` connected graphs, ``sources_per_graph`` distinct
    sources each; fractions aggregate over all source rows.  For levels at
    or below the regime index the row also carries the worst relative
    deviation of the level-set size from its predicted delta**l.  A cell
    outside the analysis window (``regime_valid`` false) leaves both
    prediction columns empty.
    """
    if cfg.kind != KIND_LEVEL_FRACTIONS:
        raise ValueError(f"config kind is {cfg.kind!r}")
    nested = _map_ordered(_run_level_cell, cfg, cfg.cells(), cfg.threads, size=lambda cell: cell[0])
    return [row for rows in nested for row in rows]


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the config kind's experiment, write its CSV outputs (an md_smd
    sweep also writes the per-cell summary file) and return a summary.

    An output directory that does not exist raises FileNotFoundError before
    any trial runs."""
    out_dir = Path(cfg.output_path).parent
    if not out_dir.is_dir():
        raise FileNotFoundError(f"output directory {str(out_dir)!r} does not exist")
    runner, columns = {
        KIND_MD_SMD_SWEEP: (run_md_smd_sweep, TRIAL_CSV_FIELDS),
        KIND_THRESHOLD_SWEEP: (run_threshold_sweep, THRESHOLD_CSV_FIELDS),
        KIND_LEVEL_FRACTIONS: (run_level_fractions, LEVEL_CSV_FIELDS),
    }[cfg.kind]
    out = runner(cfg)
    rows, summaries = out if cfg.kind == KIND_MD_SMD_SWEEP else (out, None)
    write_csv(rows, cfg.output_path, columns)
    result = {"kind": cfg.kind, "rows": len(rows), "output": str(cfg.output_path)}
    if summaries is not None:
        summary_path = summary_path_for(cfg.output_path)
        write_csv(summaries, summary_path, SUMMARY_CSV_FIELDS)
        result["summary"] = str(summary_path)
    return result
