"""Erdos-Renyi sampling and query-complexity predictions.

For G(n, p) with mean degree delta = n*p, the distance distribution from a
typical node concentrates on a narrow band of levels.  The calculators here
expose the level structure (regime index ``i``, tail mass parameter ``c``),
the dominant-mass parameters ``gamma_smd`` / ``gamma_md`` that drive the
adaptive and non-adaptive query-complexity predictions, and the resulting
step-count bounds.

All logarithms are natural unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _check_node_count


@dataclass(frozen=True)
class ErParameters:
    """Derived quantities for one (n, p) pair.

    delta is the mean degree n*p.  The regime index ``i`` is the largest
    integer with delta**i <= n/ln(n): balls of radius up to ``i`` are small,
    level i+1 carries the bulk of the mass and level i+2 the complement
    e^(-c).  For i = 0 the graph is dense enough that distances are just
    {1, 2} with masses p and 1-p, and ``c`` is not defined.

    gamma_smd bounds the worst single cell an adaptive distance query can
    leave behind (as a fraction of the candidate set); gamma_md is the
    root-mean-square analogue that governs non-adaptive resolving sets.
    zeta is the concentration half-width for level sizes, exposed for
    diagnostics only; no bound below consumes it.

    regime_valid means the analysis window applies: delta > ln(n) and
    1 - p > 1/sqrt(n).  The classical window wants delta > ln(n)**5;
    regime_relaxed flags parameters that clear only the relaxed gate.
    """

    n: int
    p: float
    delta: float
    i: int
    c: float | None
    zeta: float
    gamma_smd: float
    gamma_md: float
    eta: float
    regime_valid: bool
    regime_relaxed: bool


@dataclass(frozen=True)
class BoundPrediction:
    """Leading terms of the step counts at one (n, p), not finite-n bounds.

    smd_upper comes from repeated gamma_smd shrinking of the candidate set;
    smd_lower is the eta-scaled version with the binary-search floor
    log2(n); md_value is the non-adaptive analogue built from gamma_md.
    f_gamma and f_eta are the two adaptivity-gap readouts: the ratio of the
    per-step decay rates and the eta factor itself.
    """

    smd_upper: float
    smd_lower: float
    md_value: float
    f_gamma: float
    f_eta: float


def _level_masses(n: int, p: float, i: int) -> tuple[float | None, float, float]:
    """The two-level model at regime index ``i``: (c, mass of level i+1,
    mass of level i+2).  For i = 0 the levels are 1 and 2 with masses p and
    1 - p, and c is None."""
    if i == 0:
        return None, p, 1.0 - p
    delta = n * p
    c = delta ** (i + 1) / n
    # exp(-c) underflows to 0 once c > ~745 (e.g. n=122083, p=0.078125):
    # level i+2 is then empty to double precision, and the split stays well
    # defined with a zero far mass.
    return c, 1.0 - math.exp(-c) - delta**i / n, math.exp(-c)


def er_parameters(n: int, p: float, force_i: int | None = None) -> ErParameters:
    """Compute the level structure and decay parameters for G(n, p).

    ``force_i`` overrides the regime-index rule (largest i with
    delta**i <= n/ln(n)); use it to probe boundary cases where the
    finite-n rule and the asymptotic order-of-growth rule disagree.  An
    index whose mass split is degenerate (no mass left for level i+1)
    raises ValueError when forced.  The natural index meets such splits
    just above mean degree 1; there the parameters come back with
    ``regime_valid`` false.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    ln_n = math.log(n)
    delta = n * p
    threshold = n / ln_n
    if force_i is not None:
        if force_i < 0:
            raise ValueError("force_i must be >= 0")
        i = int(force_i)
    elif delta <= 1.0:
        # Sub-critical mean degree: delta**i never grows, the index rule is
        # vacuous and the regime gate below fails anyway.
        i = 0
    else:
        # Start from the logarithm and settle on the exact float rule: just
        # above delta = 1 the index runs to the hundreds (n=50, p=0.0202
        # gives 256) and, one ulp above, to ~1e16, too far to count up to.
        i = max(int(math.log(threshold) / math.log(delta)), 0)
        while i > 0 and delta**i > threshold:
            i -= 1
        while delta ** (i + 1) <= threshold:
            i += 1
    c, mass_near, mass_far = _level_masses(n, p, i)
    # A nonpositive near mass means the index puts more than all the mass
    # below level i+1: the two-level decay model does not apply.
    degenerate = mass_near <= 0.0
    if degenerate and force_i is not None:
        raise ValueError(
            f"level index i={i} gives a degenerate mass split at "
            f"n={n}, p={p}; the two-level decay model does not apply"
        )
    if degenerate:
        # The natural index gets here just above the critical mean degree
        # (e.g. n=50, p=0.0202): report the parameters with the near mass
        # at zero, outside the analysis window.  There c > 1/ln(n) and
        # exp(-c) >= 1 - delta**i/n >= 1 - 1/ln(n) > 0, so the far mass
        # lies in (0, 1) and eta is finite.
        mass_near = 0.0
    gamma_smd = max(mass_near, mass_far)
    gamma_md = math.hypot(mass_near, mass_far)
    eta = 1.0 + math.log(math.log(1.0 / gamma_smd)) / ln_n
    zeta = max(math.sqrt(ln_n / delta), delta**i / n)
    regime_valid = not degenerate and delta > ln_n and (1.0 - p) > 1.0 / math.sqrt(n)
    regime_relaxed = regime_valid and not delta > ln_n**5
    return ErParameters(
        n=n,
        p=p,
        delta=delta,
        i=i,
        c=c,
        zeta=zeta,
        gamma_smd=gamma_smd,
        gamma_md=gamma_md,
        eta=eta,
        regime_valid=regime_valid,
        regime_relaxed=regime_relaxed,
    )


def bound_prediction(params: ErParameters) -> BoundPrediction:
    """Step-count predictions from the decay parameters: asymptotic leading
    terms evaluated at finite n, not finite-n bounds.  At n = 250..2000 the
    mean greedy resolving set is 0.49-0.72 of md_value, and one can fall
    below smd_lower (README, Sweep configs).

    Requires ``params.regime_valid``; outside the window the gamma values
    do not mean anything and this raises rather than extrapolate.
    """
    if not params.regime_valid:
        raise ValueError(
            f"(n={params.n}, p={params.p}) is outside the analysis window; "
            "no bound prediction is defined"
        )
    ln_n = math.log(params.n)
    rate_smd = -math.log(params.gamma_smd)
    rate_md = -math.log(params.gamma_md)
    smd_upper = ln_n / rate_smd
    smd_lower = max(params.eta * smd_upper, math.log2(params.n))
    # The binary-search floor can overshoot the upper bound in a narrow
    # window where gamma_smd dips just under 1/2 at finite n; a lower bound
    # is never allowed to exceed its matching upper bound.
    smd_lower = min(smd_lower, smd_upper)
    return BoundPrediction(
        smd_upper=smd_upper,
        smd_lower=smd_lower,
        md_value=ln_n / rate_md,
        f_gamma=rate_md / rate_smd,
        f_eta=params.eta,
    )


def predicted_level_fractions(params: ErParameters) -> dict[int, float]:
    """Expected fraction of nodes at each distance from a typical node.

    The map covers levels 1..i+2: geometric growth delta**l/n up to level
    i, then the two masses of ``_level_masses`` (for i = 0 only levels 1
    and 2, masses p and 1 - p).  Fractions sum to 1 up to a
    2*delta**(i-1)/n truncation error.
    """
    if not params.regime_valid:
        raise ValueError(
            f"(n={params.n}, p={params.p}) is outside the analysis window"
        )
    fractions = {l: params.delta**l / params.n for l in range(1, params.i + 1)}
    _, fractions[params.i + 1], fractions[params.i + 2] = _level_masses(
        params.n, params.p, params.i
    )
    return fractions


# Generator.geometric draws by inversion below this p and by search above.
_INVERSION_BELOW = 1 / 3


def _inverted_gaps(rng: np.random.Generator, p: float, size: int, total: int) -> np.ndarray:
    """``size`` gaps as ``rng.geometric(p, size)`` draws them for p below
    ``_INVERSION_BELOW``: ``ceil(E / -log1p(-p))`` from one standard
    exponential E each, the same draws in the same order, as int64.  A gap
    past ``total`` reads ``total + 1``, where numpy's reads INT64_MAX or
    would overflow the cast."""
    gaps = rng.standard_exponential(size=size)
    with np.errstate(over="ignore"):  # a vanishing p: E / -log1p(-p) is inf
        gaps /= -math.log1p(-p)  # libm's log1p, as numpy's own draw uses
    np.ceil(gaps, out=gaps)
    np.minimum(gaps, total + 1, out=gaps)
    return gaps.astype(np.int64)


def sample_gnp(n: int, p: float, seed) -> Graph:
    """Sample G(n, p): each unordered pair is an edge independently w.p. p.

    ``seed`` is an int or a numpy Generator (handy for resampling loops).
    Identical seed means identical graph.  Pairs are selected by geometric
    gap-skipping over the linearized upper triangle, so the cost is
    O(expected edges) rather than O(n**2).

    The gaps are ``Generator.geometric(p)`` draws, a batch at a time.  For
    p < 1/3 numpy draws them by inversion, ``ceil(E / -log1p(-p))`` with E
    standard exponential, and the sampler makes that same draw over the
    whole batch at once (``_inverted_gaps``); for p >= 1/3 numpy searches,
    and the sampler calls ``geometric``.  Either way the stream and the graph are
    numpy's.  A gap past the pair count ends the triangle, so it is
    clamped there before the int64 cast: a vanishing p gives an edgeless
    graph, not an overflowing sum.
    """
    _check_node_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        lin = np.empty(0, dtype=np.int64)
    elif p == 1.0:
        lin = np.arange(total, dtype=np.int64)
    else:
        chunks = []
        pos = -1
        while True:
            batch = int((total - pos) * p * 1.1) + 16
            if p < _INVERSION_BELOW:
                gaps = _inverted_gaps(rng, p, batch, total)
            else:
                gaps = rng.geometric(p, size=batch).astype(np.int64, copy=False)
            idx = np.cumsum(gaps, out=gaps)
            idx += pos
            cut = int(np.searchsorted(idx, total, side="left"))
            if cut < idx.size:
                chunks.append(idx[:cut])
                break
            chunks.append(idx)
            pos = int(idx[-1])
        lin = np.concatenate(chunks)
    # Linear index k -> pair (u, v), u < v; row u follows the n-1 + ... + n-u pairs before it.
    # lin is sorted, so one search per row start counts the pairs each row holds.
    row = np.arange(n, dtype=np.int64)
    row_start = row * (2 * n - 1 - row) // 2
    counts = np.diff(np.searchsorted(lin, row_start), append=lin.size)
    ends = np.empty((2, lin.size), dtype=np.int64)
    ends[0] = np.repeat(row, counts)
    np.subtract(lin, np.repeat(row_start - row - 1, counts), out=ends[1])
    return Graph(n, ends.T)
