import pytest

from perfbench.stats import percentile, supported_tail


def test_percentile_interpolates_between_ranks():
    xs = [5, 1, 4, 2, 3]
    assert percentile(xs, 50) == 3
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7], 90) == 7


@pytest.mark.parametrize("count, tail", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75),
    (99, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99),
])
def test_tail_needs_ten_samples_beyond(count, tail):
    assert supported_tail(count) == tail
