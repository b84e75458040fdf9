"""The per-trial kernels, pinned to their reference outputs: the BFS arc
runs sized by frontier density, label 0 read off the diagonal, the full
counts a graph-built matrix reads off its graph, and the G(n, p) gaps
drawn in one pass."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import complete_graph, cycle_graph, path_graph, star_graph

from seqlocate import (
    AdversaryPolicy,
    BinaryMatrix,
    Graph,
    Player1Policy,
    bfs_distances,
    distance_matrix,
    distances_from_sources,
    is_connected,
    md_greedy,
    play_game,
    sample_gnp,
    sqc_maxgain_worstcase,
)
from seqlocate import ermodel, graphs, localization
from seqlocate.cli import dispatch
from seqlocate.game import _LabelGameEngine
from seqlocate.graphs import DistanceMatrix, _distance_table, _widened
from seqlocate.localization import _label_counts


def reference_rows(g: Graph, sources) -> np.ndarray:
    """Hop distances from each source by plain BFS, int32 with UNREACHABLE."""
    return np.array([bfs_distances(g, int(v)) for v in sources], dtype=np.int32).reshape(-1, g.n)


def narrow_dtype(rows: np.ndarray) -> np.dtype:
    """The dtype ``_distance_table`` writes: uint8 while every level is below 255."""
    reached = rows[rows != graphs.UNREACHABLE]
    return np.dtype(np.uint8 if reached.max() < 255 else np.uint16)


# ---- BFS arc runs -------------------------------------------------------

BFS_GRAPHS = [
    pytest.param(complete_graph(60), id="K_60"),
    pytest.param(star_graph(299), id="star-300"),
    *(pytest.param(sample_gnp(300, p, 4), id=f"gnp-300-{p}") for p in (0.01, 0.05, 0.3, 0.7)),
    pytest.param(Graph(120, [(i, i + 1) for i in range(50)] + [(i, j) for i in range(60, 90) for j in range(i + 1, 90)]),
                 id="disconnected"),
    pytest.param(path_graph(256), id="P_256"),
    pytest.param(cycle_graph(600), id="C_600"),
]


@pytest.fixture
def first_runs(monkeypatch):
    """Record every (lanes_set, n, s) the BFS sizes a first run from, and the run."""
    calls = []
    rule = graphs._first_run

    def spy(lanes_set, n, s):
        calls.append((lanes_set, n, s, rule(lanes_set, n, s)))
        return calls[-1][-1]

    monkeypatch.setattr(graphs, "_first_run", spy)
    return calls


@pytest.mark.parametrize("g", BFS_GRAPHS)
def test_all_pairs_match_plain_bfs(g, first_runs):
    """Every row and the dtype match plain BFS, and each level's first run
    is sized from the lanes the level before it set: the entries of that
    level in the finished table."""
    table = _distance_table(g, np.arange(g.n))
    expected = reference_rows(g, range(g.n))
    assert table.dtype == narrow_dtype(expected)
    assert np.array_equal(_widened(table).T, expected)
    for level, (lanes_set, n, s, run) in enumerate(first_runs, start=1):
        assert (n, s) == (g.n, g.n)
        assert lanes_set == np.count_nonzero(expected == level)
        assert run >= 1


@pytest.mark.parametrize("g", BFS_GRAPHS)
def test_source_subsets_match_plain_bfs(g, first_runs):
    """Every row matches plain BFS, and the first runs are sized from each
    level's entries, level 1's (the sources' degree sum) included."""
    sources = np.random.default_rng(g.n).permutation(g.n)[:50]
    got = distances_from_sources(g, sources)
    expected = reference_rows(g, sources)
    assert got.dtype == np.int32
    assert np.array_equal(got, expected)
    for level, (lanes_set, n, s, run) in enumerate(first_runs, start=1):
        assert (n, s) == (g.n, 50)
        assert lanes_set == np.count_nonzero(expected == level)


def test_first_run_rule():
    """ceil(ln(16 s) / -ln(1 - phi)) arcs at density phi, 1 when phi >= 1."""
    assert graphs._first_run(int(0.3 * 2000 * 2000), 2000, 2000) == 30
    assert graphs._first_run(1, 2000, 2000) == math.ceil(math.log(32000) / -math.log1p(-1 / 2000**2))
    assert graphs._first_run(60 * 60, 60, 60) == 1
    assert graphs._first_run(60 * 60 + 1, 60, 60) == 1
    assert graphs._first_run(59 * 60, 60, 60) == math.ceil(math.log(960) / math.log(60))


def test_dense_level_takes_short_runs(first_runs):
    """At G(2000, 0.3), level 2 reads runs of about 30 arcs, not whole lists."""
    g = sample_gnp(2000, 0.3, 0)
    distance_matrix(g)
    assert first_runs[0][3] == 30


# ---- Label 0 off the diagonal --------------------------------------------

# Connected G(n, p) samples whose tables have widths 2..8 (diameter + 1).
WIDTH_SAMPLES = {2: (40, 1.0, 0), 3: (80, 0.5, 0), 4: (120, 0.1, 1), 5: (120, 0.1, 0),
                 6: (150, 0.05, 0), 7: (150, 0.05, 25), 8: (200, 0.03, 14)}


@pytest.fixture(params=[None, 1, 100], ids=lambda b: f"budget-{b or 'default'}")
def count_budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(localization, "_BLOCK_ELEMENTS", request.param)


@pytest.mark.parametrize("width", sorted(WIDTH_SAMPLES))
def test_diagonal_rule_counts_equal_the_planes(width, count_budget):
    n, p, seed = WIDTH_SAMPLES[width]
    g = sample_gnp(n, p, seed)
    assert is_connected(g)
    engine = distance_matrix(g)._engine
    table, got_width = engine.table, engine.width
    assert got_width == width
    assert engine.diagonal
    rng = np.random.default_rng(width)
    some = rng.choice(n, n // 3, replace=False)
    row_sets = [np.arange(n), some, np.concatenate([some, some[:7]]), rng.integers(0, n, 40), np.array([3])]
    ranges = [(0, None), (0, n), (5, 6), (n // 4, 3 * n // 4), (n - 1, n)]
    for rows in row_sets:
        for lo, hi in ranges:
            planes = _label_counts(table, rows, width, lo, hi)
            ruled = _label_counts(table, rows, width, lo, hi, True)
            assert ruled.dtype == planes.dtype == np.int32
            assert np.array_equal(ruled, planes)


# ---- Full counts read off the graph ---------------------------------------

DEGREE_GRAPHS = [
    *(pytest.param(sample_gnp(*WIDTH_SAMPLES[w]), id=f"width-{w}") for w in sorted(WIDTH_SAMPLES)),
    pytest.param(path_graph(300), id="P_300"),  # uint16, past _PLANE_WIDTH: the bincount kernel
    pytest.param(Graph(1, []), id="n-1"),
    pytest.param(Graph(2, [(0, 1)]), id="n-2"),
]


@pytest.mark.parametrize("g", DEGREE_GRAPHS)
def test_degree_counts_equal_the_checked_planes(g, count_budget):
    """A graph-built engine obeys the diagonal rule from the start, and so
    does a hand-built matrix of the same table, whose engine checks it.
    Both full counts equal the counts by planes, and each query's label
    histogram."""
    dm = distance_matrix(g)
    built, hand = dm._engine, DistanceMatrix(g.n, dm.table)._engine
    assert built.diagonal and hand.diagonal
    width = built.width
    got, checked = built.full_counts(), hand.full_counts()
    planes = _label_counts(hand.table, np.arange(g.n), width)
    assert got.dtype == checked.dtype == planes.dtype == np.int32
    assert np.array_equal(got, planes) and np.array_equal(checked, planes)
    assert np.array_equal(got.T, [np.bincount(row, minlength=width) for row in dm.d])
    assert not got.flags.writeable


@pytest.mark.parametrize("width", sorted(WIDTH_SAMPLES))
def test_hand_built_rule_is_fixed_at_construction(width, count_budget):
    """A hand-built matrix of a graph's table obeys the diagonal rule as
    soon as its engine is built, before any count, and every count of that
    engine equals the counts by planes."""
    n = WIDTH_SAMPLES[width][0]
    dm = distance_matrix(sample_gnp(*WIDTH_SAMPLES[width]))
    engine = DistanceMatrix(n, dm.table)._engine
    assert engine.diagonal and engine._full is None
    rows = np.random.default_rng(width).choice(n, n // 2, replace=False)
    for lo, hi in [(0, None), (3, n // 2)]:
        assert np.array_equal(engine.counts(rows, lo, hi), _label_counts(engine.table, rows, width, lo, hi))
    assert np.array_equal(engine.full_counts(), _label_counts(engine.table, np.arange(n), width))
    assert engine.diagonal


def test_width_3_degree_counts_read_no_table_entry():
    """At width 3 the counts come from the diagonal and the degrees alone:
    a table of other labels in the engine's place gives the same counts."""
    g = sample_gnp(*WIDTH_SAMPLES[3])
    dm = distance_matrix(g)
    expected = DistanceMatrix(g.n, dm.table)._engine.full_counts()
    engine = dm._engine
    assert engine.width == 3
    engine.table = np.full_like(dm.table, 2)
    assert np.array_equal(engine.full_counts(), expected)


def test_degrees_are_not_a_constructor_argument():
    dm = distance_matrix(cycle_graph(5))
    with pytest.raises(TypeError):
        DistanceMatrix(5, dm.table, np.full(5, 2))
    assert DistanceMatrix(5, dm.table)._degrees is None
    assert dm._degrees.tolist() == [2] * 5


@pytest.mark.parametrize("width", [3, 5])
def test_degree_counts_pick_and_play_as_the_planes(width):
    """md_greedy's picks and MAX-GAIN's transcripts are the same on the
    graph-built matrix and on a hand-built one of its table."""
    g = sample_gnp(*WIDTH_SAMPLES[width])
    built = distance_matrix(g)
    hand = DistanceMatrix(g.n, built.table)
    assert md_greedy(g, dm=built).nodes == md_greedy(g, dm=hand).nodes
    for p2 in [AdversaryPolicy.greedy_max_cell()] + [AdversaryPolicy.fixed_target(v) for v in (0, g.n // 2, g.n - 1)]:
        got, expected = (play_game(dm, Player1Policy.max_gain(), p2) for dm in (built, hand))
        assert got.to_json_lines() == expected.to_json_lines()
        assert got.final_candidates.tolist() == expected.final_candidates.tolist()


def twin_table(separated_by: int | None = None) -> np.ndarray:
    """The distances of G(60, 0.3) seed 0 and a twin of node 0, node 60,
    at distance 0 from it: a symmetric table with an off-diagonal 0.  With
    ``separated_by``, the twin's distance to that node is one more than
    node 0's, so some query tells the two apart."""
    g = sample_gnp(60, 0.3, 0)
    assert is_connected(g)
    d = distance_matrix(g).d
    t = np.zeros((61, 61), dtype=np.int32)
    t[:60, :60] = d
    t[60, :60] = t[:60, 60] = d[0]
    if separated_by is not None:
        t[60, separated_by] += 1
        t[separated_by, 60] += 1
    return t


def games(dm: DistanceMatrix) -> list:
    out = []
    for p2 in [AdversaryPolicy.greedy_max_cell()] + [AdversaryPolicy.fixed_target(v) for v in (0, 60, 17)]:
        t = play_game(dm, Player1Policy.max_gain(), p2)
        out.append(([(s.query, s.answer, s.candidates) for s in t.steps], t.final_candidates.tolist()))
    return out


GREEDY_CELL_GAME = ([(55, 2, 37), (53, 1, 18), (14, 2, 9), (0, 2, 5), (29, 1, 2), (1, 1, 1)], [57])
TARGET_17_GAME = ([(55, 2, 37), (53, 1, 18), (14, 2, 9), (0, 2, 5), (29, 2, 2), (4, 3, 1)], [17])


def test_near_twin_table_keeps_the_planes():
    """The check fails on an off-diagonal 0, and the greedy picks and the
    played games are those the plane counts give."""
    dm = DistanceMatrix(61, twin_table(separated_by=5))
    assert md_greedy(Graph(61, []), dm=dm).nodes == (55, 15, 7, 47, 40, 1, 2, 6, 5, 3)
    assert not dm._engine.diagonal
    assert games(dm) == [
        GREEDY_CELL_GAME,
        ([(55, 1, 23), (40, 2, 12), (7, 1, 6), (21, 2, 3), (0, 0, 2), (5, 1, 1)], [0]),
        ([(55, 1, 23), (40, 2, 12), (7, 1, 6), (21, 2, 3), (0, 0, 2), (5, 2, 1)], [60]),
        TARGET_17_GAME,
    ]
    assert not dm._engine.diagonal


def test_twin_table_keeps_the_planes():
    """With exact twins the greedy finds them inseparable, and a game whose
    target is a twin queries every node and ends with both twins."""
    dm = DistanceMatrix(61, twin_table())
    with pytest.raises(ValueError, match="not separable"):
        md_greedy(Graph(61, []), dm=dm)
    assert not dm._engine.diagonal
    played = games(dm)
    assert played[0] == GREEDY_CELL_GAME and played[3] == TARGET_17_GAME
    twin_game = [(55, 1, 23), (40, 2, 12), (7, 1, 6), (5, 1, 3)]
    for steps, final in played[1:3]:
        assert steps[:4] == twin_game and steps[4] == (0, 0, 2)
        assert sorted(q for q, _, _ in steps) == list(range(61)) and final == [0, 60]
    assert played[1] == played[2]


FOUR_BY_FOUR = np.array([[0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 1, 0]], dtype=np.uint8)


@pytest.mark.parametrize(
    "labels", [twin_table(), twin_table(separated_by=5), FOUR_BY_FOUR], ids=["twin", "near-twin", "matrix-4x4"]
)
def test_failed_check_stays_off(labels):
    """A table that fails the check at construction keeps the planes
    through every count: nothing switches the rule on later."""
    engine = _LabelGameEngine(labels.T)
    assert not engine.diagonal
    engine.full_counts()
    engine.largest_cells(np.arange(labels.shape[1]))
    assert not engine.diagonal


def test_matrix_engine_keeps_the_planes():
    """A binary matrix with two 0s in a column fails the check."""
    bits = FOUR_BY_FOUR
    engine = _LabelGameEngine(bits.T)
    engine.full_counts()
    assert not engine.diagonal
    assert sqc_maxgain_worstcase(BinaryMatrix(4, 4, bits)) >= 1


# ---- G(n, p) gaps in one pass -------------------------------------------

@pytest.mark.parametrize("p", [1e-9, 1e-3, 0.05, 0.3, float(np.nextafter(1 / 3, 0))])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_inverted_gaps_equal_numpy_geometric(p, seed):
    """The one-pass draws are numpy's own, value for value, and leave the
    stream where numpy's would."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in (1, 16, 1000, 65_537):
        got = ermodel._inverted_gaps(rng, p, size, 10**15)
        expected = np.minimum(twin.geometric(p, size), 10**15 + 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
    assert rng.random() == twin.random()


def test_one_third_and_up_search_as_numpy_does():
    """At p = 1/3 the gaps are numpy's searched draws: G(200, 1/3)'s edges,
    by their index in the upper triangle, are the cumulative gaps of one
    batch of ``geometric`` draws, sized as the sampler sizes it."""
    assert ermodel._INVERSION_BELOW == 1 / 3
    total = 200 * 199 // 2
    lin = np.cumsum(np.random.default_rng(5).geometric(1 / 3, int((total + 1) * (1 / 3) * 1.1) + 16)) - 1
    assert lin[-1] >= total
    u, v = np.array(sample_gnp(200, 1 / 3, 5).edges()).T
    assert (u * (2 * 200 - 1 - u) // 2 + v - u - 1).tolist() == lin[lin < total].tolist()


@pytest.mark.parametrize("p", [1e-300, 5e-324, 1e-18])
@pytest.mark.parametrize("n", [2, 10, 1000, 50_000])
def test_vanishing_p_gives_an_edgeless_graph(n, p):
    g = sample_gnp(n, p, 3)
    assert g.n == n and g.num_edges == 0


def test_gen_at_vanishing_p(capsys):
    assert dispatch(["gen", "--n", "10", "--p", "1e-300", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "10 0\n"
