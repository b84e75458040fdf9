"""Percentiles and the sample-count rule for tail latencies."""

from __future__ import annotations

import math

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
LADDER = (50, 75, 90, 95, 99)


def percentile(values, q: float) -> float:
    """q-th percentile by linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = (len(xs) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def supported_tail(count: int) -> int | None:
    """Highest percentile in LADDER with at least MIN_BEYOND of ``count``
    samples beyond it, or None when even the median lacks them."""
    ok = [q for q in LADDER if count * (100 - q) >= MIN_BEYOND * 100]
    return max(ok) if ok else None
