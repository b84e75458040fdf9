"""The one index rule: every node index the package reads is an integer.

A float index (even 1.0) raises ValueError at every entry point, as an edge
end does in ``Graph``; Python and numpy integers give the same results.  A
reader of one node (a target, a source) rejects a list with ValueError.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import path_graph

from seqlocate import (
    AdversaryPolicy,
    GameState,
    Player1Policy,
    QuerySet,
    adversary_answer,
    bfs_distances,
    distance_matrix,
    distance_partition,
    distances_from_sources,
    f_separator_exists,
    initial_state,
    level_set,
    max_gain_query,
    observation_vector,
    play_game,
    reducer_score,
)
from seqlocate.localization import _query_rows

G = path_graph(4)
DM = distance_matrix(G)


def _play(p1, p2):
    return play_game(DM, p1, p2).to_json_lines()


# Each entry point called with one node index v on P_4, returning a plain
# value that compares equal for equal results.
ENTRY_POINTS = {
    "QuerySet": lambda v: QuerySet((v, 3)),
    "query-rows": lambda v: _query_rows(DM, [v, 3]).tolist(),
    "max-gain-pool": lambda v: max_gain_query(DM, initial_state(4), pool=[v, 3]),
    "stepwise-w-partition": lambda v: {k: c.tolist() for k, c in distance_partition(DM, np.arange(4), v).items()},
    "stepwise-w-score": lambda v: reducer_score(DM, np.arange(4), v),
    "stepwise-w-answer": lambda v: adversary_answer(DM, initial_state(4), v, AdversaryPolicy.greedy_max_cell()),
    "player1-sequence": lambda v: _play(Player1Policy.fixed_sequence((v, 3)), AdversaryPolicy.fixed_target(2)),
    "player1-direct": lambda v: _play(Player1Policy("fixed-sequence", (v, 3)), AdversaryPolicy.fixed_target(2)),
    "game-state-queries": lambda v: GameState([v], [1], np.arange(4)).queries == [1],
    "adversary-fixed-target": lambda v: _play(Player1Policy.max_gain(), AdversaryPolicy.fixed_target(v)),
    "adversary-direct": lambda v: _play(Player1Policy.max_gain(), AdversaryPolicy("fixed-target", v)),
    "f-separator-W": lambda v: f_separator_exists(DM, [v, 3], 0.5, 0.0),
    "candidates-partition": lambda v: {k: c.tolist() for k, c in distance_partition(DM, [v, 3], 0).items()},
    "candidates-score": lambda v: reducer_score(DM, [v, 3], 0),
    "candidates-max-gain": lambda v: max_gain_query(DM, GameState([], [], np.array([v, 3]))),
    "sources": lambda v: distances_from_sources(G, [v, 3]).tolist(),
    "observation-target": lambda v: observation_vector(DM, QuerySet((0, 3)), v).tolist(),
    "level-set-node": lambda v: level_set(DM, v, 1).tolist(),
    "bfs-source": lambda v: bfs_distances(G, v).tolist(),
    "degree": lambda v: G.degree(v),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("index", [0.5, 1.0, np.float64(2.0)], ids=["half", "one-float", "numpy-float"])
def test_float_index_rejected(call, index):
    with pytest.raises(ValueError, match="must be integers, got dtype"):
        call(index)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_integer_types_agree(call):
    results = [call(index) for index in (1, np.int32(1), np.int64(1))]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize(
    "w_set",
    [[0, 1, 3], (0, 1, 3), {0, 1, 3}, frozenset((0, 1, 3)), QuerySet((0, 1, 3)), np.array([0, 1, 3])],
    ids=["list", "tuple", "set", "frozenset", "QuerySet", "ndarray"],
)
def test_separator_reads_any_iterable(w_set):
    assert f_separator_exists(DM, w_set, 0.5, 0.0) == f_separator_exists(DM, [0, 1, 3], 0.5, 0.0) == (True, 0)


def test_query_past_int64_out_of_range():
    with pytest.raises(IndexError, match=f"^query {2**70} out of range$"):
        _query_rows(DM, [0, 2**70])


def test_scalar_sources_rejected():
    with pytest.raises(ValueError, match="nonempty 1-d"):
        distances_from_sources(G, 3)


# The entry points above that read one node, not a set of nodes.
ONE_NODE_READERS = [
    "observation-target", "level-set-node", "bfs-source", "degree",
    "stepwise-w-partition", "stepwise-w-score", "stepwise-w-answer",
]


@pytest.mark.parametrize("index", [[1], np.array([1]), [1, 2]], ids=["list", "array", "two"])
@pytest.mark.parametrize("call", ONE_NODE_READERS)
def test_scalar_reader_takes_one_node(call, index):
    with pytest.raises(ValueError, match=r"must be one node, got shape \((1|2),\)$"):
        ENTRY_POINTS[call](index)


@pytest.mark.parametrize("target", [[1], [1, 2]], ids=["one-element", "two"])
def test_fixed_target_is_one_node(target):
    with pytest.raises(ValueError, match=r"^target must be one node, got shape"):
        AdversaryPolicy.fixed_target(target)


@pytest.mark.parametrize("index", ["1", None], ids=["string", "none"])
def test_non_number_index_rejected(index):
    with pytest.raises(ValueError, match="^query nodes must be integers, got dtype"):
        QuerySet((index,))
