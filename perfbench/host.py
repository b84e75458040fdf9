"""Host speed, sampled on the CPU of a timed call while the call runs.

On the 2-vCPU development VM, each vCPU's speed changed by tens of percent
over seconds and over minutes, as other tenants of the host came and went.
CPU time kept pace with wall time, so the slowdown was slower execution, not
stolen time. The same exact-solver call timed minutes apart differed by as
much as a large regression would. Dividing a call's wall time by the host's
speed sampled around and during it cancels most of that.

The sample is a fixed piece of pure-Python integer and set work, like the
exact solvers' inner loops, that no change to the package can speed up.
During a call it runs from a SIGALRM handler, so it measures the call's own
thread and CPU; a call that runs on a worker pool across CPUs is not
sampled.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Nominal time of one reference_work() call: a host factor of 1 means the
# host runs it this fast. Scaled times are wall times on such a host.
NOMINAL_S = 1.5e-4
# Interval between samples during a call, and samples taken just before and
# just after it, so that calls shorter than the interval are also scaled.
TICK_S = 0.02
EDGE_SAMPLES = 8
_MASK64 = (1 << 64) - 1


def reference_work() -> int:
    x, acc, seen = 0x9E3779B97F4A7C15, 0, set()
    for _ in range(400):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        acc += (x >> 17).bit_count()
        seen.add(x & 1023)
    return acc + len(seen)


def _sample() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def call(fn, sample: bool):
    """Call ``fn()``. Return its result or the exception it raised, its wall
    time in seconds without the samples taken during it, and the host
    factor: the mean sample time over NOMINAL_S. Without ``sample``, nothing
    else runs and the factor is 1."""
    if not sample:
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a broken solver fails its items, not the run
            out = exc
        return out, perf_counter() - t0, 1.0

    samples = [_sample() for _ in range(EDGE_SAMPLES)]
    during = []

    def tick(signum, frame):
        during.append(_sample())

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        out = fn()
    except Exception as exc:  # a broken solver fails its items, not the run
        out = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0 - sum(during)
        signal.signal(signal.SIGALRM, previous)
    samples += during + [_sample() for _ in range(EDGE_SAMPLES)]
    return out, wall, statistics.fmean(samples) / NOMINAL_S
