"""Binary-matrix warm-up for localization games.

Columns of a 0/1 matrix play the role of hidden targets and rows the role
of queries: querying row w reveals the bit A[w, target].  Column
distinctness is the resolvability condition, the query complexity QC is
the smallest row set keeping columns distinct, and SQC is its adaptive
game value.  For Bernoulli(q) entries the number of rows where the
distinct/not-distinct probability flips has a sharp threshold, computed by
``qc_threshold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import AdversaryPolicy, Player1Policy, Transcript, _LabelGameEngine, _play_on_labels
from .graphs import _read_header
from .localization import _equal_pairs, _greedy_refinement, _smallest_separating_set


class UndefinedQueryComplexityError(RuntimeError):
    """QC/SQC asked of a matrix with equal columns: no row set can resolve."""


class MatrixFormatError(ValueError):
    """Malformed matrix text input."""


@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """An m-by-n 0/1 matrix; rows are queries, columns are candidate targets.
    Instances compare by identity, whatever their bits, and are hashable."""

    m: int
    n: int
    bits: np.ndarray  # (m, n) uint8, entries in {0, 1}

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if not isinstance(self.bits, np.ndarray):
            raise ValueError("entries must be uint8 zeros and ones")
        if self.bits.shape != (self.m, self.n):
            raise ValueError("bit array shape does not match declared dimensions")
        if self.bits.dtype != np.uint8 or not np.isin(self.bits, (0, 1)).all():
            raise ValueError("entries must be uint8 zeros and ones")


class CollisionStats(NamedTuple):
    x_pairs: int  # unordered pairs of identical columns
    z_zero: int  # all-zero columns
    z_one: int  # all-one columns


def sample_bernoulli(m: int, n: int, q: float, seed) -> BinaryMatrix:
    """I.i.d. Bernoulli(q) entries; identical seed means identical matrix."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"need 0 <= q <= 1, got {q}")
    rng = np.random.default_rng(seed)
    bits = (rng.random((m, n)) < q).astype(np.uint8)
    return BinaryMatrix(m, n, bits)


def collision_stats(a: BinaryMatrix) -> CollisionStats:
    """Column collision counts: equal pairs, all-zero and all-one columns.

    Equal pairs are counted by ``_equal_pairs``, the rule that
    ``is_resolving`` applies to distance rows: one sort of the columns, not
    a comparison of every pair.
    """
    col_sums = a.bits.sum(axis=0)
    return CollisionStats(
        x_pairs=_equal_pairs(a.bits),
        z_zero=int((col_sums == 0).sum()),
        z_one=int((col_sums == a.m).sum()),
    )


def columns_pairwise_distinct(a: BinaryMatrix) -> bool:
    return _equal_pairs(a.bits) == 0


def qc_threshold(n: int, q: float) -> float:
    """Row count where Bernoulli(q) columns flip from colliding to distinct.

    Defined for 0 < q <= 1/2; larger q is mapped to 1 - q by the 0/1
    symmetry of the entries (the collision probability q**2 + (1-q)**2 is
    already symmetric).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    if q > 0.5:
        q = 1.0 - q
    collision = q * q + (1.0 - q) * (1.0 - q)
    # log(n) / log(1/sqrt(collision)), simplified to avoid the sqrt rounding
    return -2.0 * math.log(n) / math.log(collision)


def gamma_qc_sqc(q: float) -> tuple[float, float]:
    """Decay parameters (gamma_qc, gamma_sqc) for Bernoulli(q) matrices.

    gamma_sqc = max(q, 1-q) is the worst cell fraction a single adaptive
    bit query can leave; gamma_qc = sqrt(q**2 + (1-q)**2) is the
    root-mean-square analogue for non-adaptive row sets.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    return math.hypot(q, 1.0 - q), max(q, 1.0 - q)


def _engine(a: BinaryMatrix) -> _LabelGameEngine:
    """Every matrix solver's instance: a fresh engine with ``a``'s columns as
    targets.  UndefinedQueryComplexityError if two columns are equal."""
    if not columns_pairwise_distinct(a):
        raise UndefinedQueryComplexityError(
            "matrix has equal columns; no row set can tell the targets apart"
        )
    return _LabelGameEngine(a.bits.T)


def qc_exact(a: BinaryMatrix, cap: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Smallest row set keeping all columns distinct, with its witness.

    The hitting-set search of ``md_exact`` over column pairs, sizes 1, 2,
    ... in turn; the witness is the lexicographically first row set of the
    smallest size.  Raises UndefinedQueryComplexityError when the full
    matrix already has equal columns, CapExceededError when nothing fits
    within ``cap`` (None or >= 0).
    """
    return _smallest_separating_set(_engine(a).table, cap, "distinguishing row set")


def qc_greedy(a: BinaryMatrix) -> tuple[int, ...]:
    """Greedy row set keeping all columns distinct (partition refinement)."""
    return tuple(_greedy_refinement(_engine(a))) if a.n > 1 else ()  # one column needs no row


def sqc_exact(a: BinaryMatrix, cap: int | None = None) -> int:
    """Adaptive game value on the matrix: bit queries, both sides optimal.

    Same decision search, cap rule and hard limit of 64 columns (a larger
    matrix is a ValueError) as ``smd_exact`` (``_LabelGameEngine.exact_value``).
    """
    return _engine(a).exact_value(cap)


def sqc_maxgain_worstcase(a: BinaryMatrix, cap: int | None = None) -> int:
    """Worst-case MAX-GAIN step count on the matrix game; hard limit 64
    columns, as for ``sqc_exact``."""
    return _engine(a).worst_value(cap)


def sqc_play(
    a: BinaryMatrix,
    p1: Player1Policy,
    p2: AdversaryPolicy,
    step_cap: int | None = None,
) -> Transcript:
    """Play one matrix game; identical semantics to the graph game with
    cells indexed by the bit values {0, 1}."""
    return _play_on_labels(_engine(a), p1, p2, step_cap)


def read_matrix(text: str) -> BinaryMatrix:
    """Parse the plain-text format: header "M N", then M rows of 0/1 digits."""
    m, n, body = _read_header(text, MatrixFormatError, "M N")
    if m < 1 or n < 1:
        raise MatrixFormatError(f"bad dimensions m={m}, n={n}")
    if len(body) != m:
        raise MatrixFormatError(f"header promises {m} rows, found {len(body)}")
    rows = []
    for ln in body:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise MatrixFormatError(f"bad row {ln!r}, expected {n} 0/1 digits")
        rows.append([int(ch) for ch in ln])
    return BinaryMatrix(m, n, np.array(rows, dtype=np.uint8))


def write_matrix(a: BinaryMatrix) -> str:
    out = [f"{a.m} {a.n}"]
    out.extend("".join(str(int(b)) for b in row) for row in a.bits)
    return "\n".join(out) + "\n"
