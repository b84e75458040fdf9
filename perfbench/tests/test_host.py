"""Host-speed sampling around a timed call."""

import signal
from time import perf_counter

from perfbench import host


def _spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass
    return "done"


def test_unsampled_call_has_factor_one_and_returns_exceptions():
    out, wall, factor = host.call(lambda: _spin(0.01), sample=False)
    assert (out, factor) == ("done", 1.0) and wall >= 0.01

    def broken():
        raise RuntimeError("pruning bug")

    out, _, _ = host.call(broken, sample=False)
    assert isinstance(out, RuntimeError)
    out, _, _ = host.call(broken, sample=True)
    assert isinstance(out, RuntimeError)


def test_sampled_call_leaves_samples_out_of_its_wall_time():
    before = signal.getsignal(signal.SIGALRM)
    t0 = perf_counter()
    out, wall, factor = host.call(lambda: _spin(0.5), sample=True)
    outside = perf_counter() - t0
    assert out == "done" and factor > 0
    # _spin runs until its deadline, so the call lasts at least 0.5 s; the
    # ~25 samples taken during it are taken out of that, and the edge
    # samples lie outside it.
    assert 0.4 < wall < 0.5
    assert outside > 0.5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
