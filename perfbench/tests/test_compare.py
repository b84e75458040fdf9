import pytest

from perfbench.compare import verdict


def pairs(parent, change):
    return list(zip(parent, change))


STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_improved_needs_win_rate_and_gap_beyond_spread():
    faster = [v * 0.8 for v in STEADY]
    assert verdict(pairs(STEADY, faster), "lower", 0.1) == ("improved", 1.0)
    assert verdict(pairs(STEADY, [v * 1.25 for v in STEADY]), "higher", 0.1)[0] == "improved"


def test_worse_beyond_bound():
    slower = [v * 1.2 for v in STEADY]
    assert verdict(pairs(STEADY, slower), "lower", 0.1) == ("worse", 0.0)


def test_unchanged_within_bound():
    assert verdict(pairs(STEADY, STEADY[::-1]), "lower", 0.1)[0] == "unchanged"


def test_ties_count_for_neither_side():
    # Nine wins and one tie: 90% of pairs, still improved.
    change = [v * 0.8 for v in STEADY[:9]] + [STEADY[9]]
    v, rate = verdict(pairs(STEADY, change), "lower", 0.1)
    assert rate == pytest.approx(0.9) and v == "improved"
    # Eight wins and two ties: not enough.
    change = [v * 0.8 for v in STEADY[:8]] + STEADY[8:]
    assert verdict(pairs(STEADY, change), "lower", 0.1)[1] == pytest.approx(0.8)


def test_wide_parent_spread_is_unresolved_unless_every_run_better():
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    same = noisy[::-1]
    assert verdict(pairs(noisy, same), "lower", 0.1)[0] == "unresolved"
    clearly = [50] * 3
    assert verdict(pairs(noisy[:3], clearly), "lower", 0.1)[0] == "unchanged"


def test_fewer_than_ten_pairs_never_improved():
    faster = [v * 0.5 for v in STEADY[:5]]
    assert verdict(pairs(STEADY[:5], faster), "lower", 0.1)[0] == "unchanged"
    assert verdict(pairs(STEADY[:1], faster[:1]), "lower", 0.1)[0] == "unresolved"


def test_more_failures_than_the_parent_is_never_improved():
    faster = [v * 0.5 for v in STEADY]
    assert verdict(pairs(STEADY, faster), "lower", 0.1, failed=(0, 1)) == ("failed", 1.0)
    assert verdict(pairs(STEADY, faster), "lower", 0.1, failed=(2, 2))[0] == "improved"
