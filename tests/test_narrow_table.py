"""The narrow distance table: the all-pairs BFS writes the narrowest unsigned
dtype that holds every level, with the dtype's largest value for no path;
the engine reads it in place, ``d`` widens it to int32 on demand, and the
full-set label counts are computed once per engine and never written."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import cycle_graph, path_graph

from seqlocate import (
    AdversaryPolicy,
    DistanceMatrix,
    Graph,
    Player1Policy,
    QuerySet,
    bfs_distances,
    candidate_targets,
    diameter,
    distance_matrix,
    distances_from_sources,
    f_separator_exists,
    is_connected,
    level_set,
    md_greedy,
    observation_vector,
    play_game,
    sample_gnp,
)
from seqlocate.game import SMD_ESTIMATE_POLICIES
from seqlocate.graphs import UNREACHABLE
from seqlocate.localization import _label_table


def connected_gnp(n: int, p: float, seed: int = 0) -> Graph:
    while not is_connected(g := sample_gnp(n, p, seed)):
        seed += 1
    return g


@pytest.mark.parametrize(
    "make, dtype",
    [
        (lambda: connected_gnp(300, 0.3), np.uint8),
        (lambda: path_graph(255), np.uint8),  # largest level 254
        (lambda: path_graph(256), np.uint16),  # level 255 widens the table
        (lambda: path_graph(300), np.uint16),
        (lambda: cycle_graph(600), np.uint16),
    ],
    ids=["gnp-300-0.3", "P_255", "P_256", "P_300", "C_600"],
)
def test_table_is_the_narrowest_that_holds_every_level(make, dtype):
    g = make()
    dm = distance_matrix(g)
    assert dm.table.dtype == dtype
    for v in range(g.n):
        assert (dm.table[v] == bfs_distances(g, v)).all()
    assert (dm.d == dm.table).all()
    assert dm.d.dtype == np.int32


@pytest.mark.parametrize(
    "g, dtype",
    [
        (Graph(4, [(0, 1), (2, 3)]), np.uint8),
        (Graph(302, [(v, v + 1) for v in range(299)]), np.uint16),  # P_300 and two isolated nodes
    ],
    ids=["two-edges", "path-and-isolated"],
)
def test_no_path_is_the_dtype_maximum_and_unreachable_in_d(g, dtype):
    dm = distance_matrix(g)
    assert dm.table.dtype == dtype
    none = dm.table == np.iinfo(dtype).max
    assert none.any()
    assert (dm.d[none] == UNREACHABLE).all()
    assert (dm.d[~none] == dm.table[~none]).all()
    for v in range(g.n):
        assert (dm.d[v] == bfs_distances(g, v)).all()


@pytest.mark.parametrize(
    "g", [path_graph(300), Graph(302, [(v, v + 1) for v in range(299)]), connected_gnp(120, 0.1)],
    ids=["P_300", "path-and-isolated", "gnp-120-0.1"],
)
def test_distances_from_sources_stays_int32(g):
    sources = [g.n - 1, 0, g.n // 2]
    rows = distances_from_sources(g, sources)
    assert rows.dtype == np.int32
    assert rows.flags.c_contiguous
    assert rows.tolist() == [bfs_distances(g, v).tolist() for v in sources]


def test_hand_built_int32_table():
    """An int32 table built by hand is its own ``d``, and the engine casts it
    to the narrow dtype without a transpose or a shared buffer."""
    labels = distance_matrix(connected_gnp(60, 0.2)).d.copy()
    dm = DistanceMatrix(60, labels)
    assert dm.d is labels
    table, width = dm._engine.table, dm._engine.width
    assert table.dtype == np.uint8 and table.flags.c_contiguous
    assert not np.shares_memory(table, labels)
    expected, expected_width = _label_table(labels)
    assert width == expected_width
    assert (table == expected).all()


def test_engine_reads_the_graph_table_in_place():
    """f_separator_exists on a fresh matrix builds no copy of the table: the
    engine's table is the matrix's own table."""
    dm = distance_matrix(connected_gnp(300, 0.3))
    assert f_separator_exists(dm, range(300), 1.0, 0.0) == (True, 0)
    assert dm._engine.table is dm.table
    assert np.shares_memory(dm._engine.table, dm.table)


@pytest.mark.parametrize("p", [0.3, 0.05])
def test_sweep_path_builds_no_int32_table(p):
    g = connected_gnp(300, p)
    dm = distance_matrix(g)
    md_greedy(g, dm=dm)
    play_game(dm, *SMD_ESTIMATE_POLICIES)
    play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.fixed_target(7))
    assert "d" not in vars(dm)


@pytest.mark.parametrize(
    "g", [Graph(4, [(0, 1), (2, 3)]), Graph(302, [(v, v + 1) for v in range(299)]), path_graph(300)],
    ids=["two-edges", "path-and-isolated", "P_300"],
)
def test_readers_widen_only_what_they_read(g):
    """The stepwise readers answer as ``d`` does, unreached pairs as
    UNREACHABLE and a level equal to the table's no-path value matching
    nothing, without building ``d``."""
    dm = distance_matrix(g)
    top = int(np.iinfo(dm.table.dtype).max)
    r = QuerySet((0, g.n - 1))
    got = [
        diameter(dm),
        [level_set(dm, v, l).tolist() for v in (0, g.n - 1) for l in (0, 1, 2, 255, top, UNREACHABLE)],
        observation_vector(dm, r, 1).tolist(),
        [candidate_targets(dm, r, [a, b]).tolist() for a in (0, 1, UNREACHABLE) for b in (0, 1, UNREACHABLE)],
    ]
    assert "d" not in vars(dm)
    d = dm.d
    assert got == [
        int(d.max()),
        [np.nonzero(d[v] == l)[0].tolist() for v in (0, g.n - 1) for l in (0, 1, 2, 255, top, UNREACHABLE)],
        d[[0, g.n - 1], 1].tolist(),
        [np.nonzero((d[0] == a) & (d[g.n - 1] == b))[0].tolist() for a in (0, 1, UNREACHABLE) for b in (0, 1, UNREACHABLE)],
    ]


def transcript(dm: DistanceMatrix, p2: AdversaryPolicy):
    t = play_game(dm, Player1Policy.max_gain(), p2)
    return [(s.query, s.answer, s.candidates) for s in t.steps], t.final_candidates.tolist()


@pytest.mark.parametrize("p", [0.3, 0.05])
def test_shared_full_counts_are_never_written(p):
    """Play, then md_greedy, then play again on one matrix: the picks and
    transcripts are those of fresh matrices, and the shared counts still
    equal a fresh recount."""
    g = connected_gnp(400, p, seed=3)
    policies = [AdversaryPolicy.greedy_max_cell()] + [AdversaryPolicy.fixed_target(v) for v in (5, 399)]
    fresh_games = [transcript(distance_matrix(g), p2) for p2 in policies]
    fresh_greedy = md_greedy(g, dm=distance_matrix(g)).nodes
    dm = distance_matrix(g)
    first = [transcript(dm, p2) for p2 in policies]
    greedy = md_greedy(g, dm=dm).nodes
    second = [transcript(dm, p2) for p2 in policies]
    assert first == fresh_games
    assert greedy == fresh_greedy
    assert second == fresh_games
    counts = dm._engine.full_counts()
    assert not counts.flags.writeable
    recount = distance_matrix(g)._engine.full_counts()
    assert (counts == recount).all()
    assert counts.sum(axis=0).tolist() == [g.n] * g.n
