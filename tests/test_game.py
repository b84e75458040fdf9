"""Adaptive localization game: policies, play, exact and greedy game values."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from itertools import combinations

import numpy as np
import pytest
from conftest import complete_graph, cycle_graph, path_graph, star_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocate import (
    AdversaryPolicy,
    BinaryMatrix,
    CapExceededError,
    DisconnectedGraphError,
    GameState,
    Graph,
    Player1Policy,
    adversary_answer,
    distance_matrix,
    distance_partition,
    f_separator_exists,
    initial_state,
    is_connected,
    max_gain_query,
    md_exact,
    play_game,
    reducer_score,
    sample_gnp,
    smd_exact,
    smd_maxgain_worstcase,
    sqc_play,
)


def connected_sample(n: int, p: float, seed: int) -> Graph:
    while True:
        g = sample_gnp(n, p, seed)
        if is_connected(g):
            return g
        seed += 10_000


class TestPolicies:
    def test_constructors(self):
        assert Player1Policy.max_gain().kind == "max-gain"
        assert Player1Policy.exact_minimax().kind == "exact-minimax"
        assert Player1Policy.fixed_sequence((2, 0)).sequence == (2, 0)
        assert AdversaryPolicy.fixed_target(3).target == 3
        assert AdversaryPolicy.greedy_max_cell().target is None
        assert AdversaryPolicy.exact_minimax().kind == "exact-minimax"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Player1Policy("bogus")
        with pytest.raises(ValueError):
            AdversaryPolicy("bogus")

    def test_target_only_for_fixed_target(self):
        with pytest.raises(ValueError):
            AdversaryPolicy("fixed-target")
        with pytest.raises(ValueError):
            AdversaryPolicy("greedy-max-cell", target=3)

    def test_sequence_only_for_fixed_sequence(self):
        with pytest.raises(ValueError):
            Player1Policy("max-gain", sequence=(1, 2))

    def test_sequence_rejects_negative_nodes(self):
        for nodes in [(-1,), (2, -1)]:
            with pytest.raises(ValueError, match="nonnegative"):
                Player1Policy.fixed_sequence(nodes)

    @pytest.mark.parametrize(
        "nodes, message",
        [((2, 0, 2), "^duplicate query node$"), ((), "^fixed-sequence policy needs at least one node$")],
        ids=["duplicate", "empty"],
    )
    def test_sequence_is_a_query_set(self, nodes, message):
        with pytest.raises(ValueError, match=message):
            Player1Policy.fixed_sequence(nodes)


class TestGameState:
    @pytest.mark.parametrize(
        "queries, observations, message",
        [
            ([0, 1], [1], "^queries and observations must have equal length$"),
            ([2, 0, 2], [1, 1, 1], "^duplicate query node$"),
            ([1, -1], [1, 1], "^query nodes must be nonnegative$"),
        ],
        ids=["unequal-lengths", "repeated-query", "negative-query"],
    )
    def test_rejects_bad_history(self, queries, observations, message):
        with pytest.raises(ValueError, match=message):
            GameState(queries=queries, observations=observations, candidates=np.arange(4))

    def test_states_and_transcripts_compare_by_identity(self):
        """Equal states or transcripts, arrays of two or more entries
        included, compare by identity, with no numpy truth-value error."""
        first, second = initial_state(5), initial_state(5)
        assert first != second and first not in [second]
        assert first == first and first in [second, first]
        assert len({first, second, first}) == 2
        dm = distance_matrix(connected_sample(30, 0.3, 0))
        policies = (Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())
        t1, t2 = (play_game(dm, *policies, step_cap=1) for _ in range(2))
        assert t1.steps == t2.steps and t1.final_candidates.size > 1
        assert t1 != t2 and t1 == t1 and len({t1, t2}) == 2


class TestPartitionAndScores:
    def test_partition_cycle(self):
        dm = distance_matrix(cycle_graph(4))
        part = distance_partition(dm, np.arange(4), 0)
        assert {k: v.tolist() for k, v in part.items()} == {0: [0], 1: [1, 3], 2: [2]}

    def test_partition_restricted_targets(self):
        dm = distance_matrix(cycle_graph(4))
        part = distance_partition(dm, np.array([1, 2, 3]), 0)
        assert {k: v.tolist() for k, v in part.items()} == {1: [1, 3], 2: [2]}

    def test_reducer_score_is_worst_cell(self):
        dm = distance_matrix(path_graph(4))
        t = np.arange(4)
        assert reducer_score(dm, t, 0) == 1  # end vertex separates everyone
        assert reducer_score(dm, t, 1) == 2  # nodes 0 and 2 collide

    def test_max_gain_prefers_small_worst_cell(self):
        dm = distance_matrix(path_graph(4))
        assert max_gain_query(dm, initial_state(4)) == 0

    def test_max_gain_tie_breaks_to_lowest_index(self):
        dm = distance_matrix(cycle_graph(4))
        # every query scores 2 by symmetry
        assert max_gain_query(dm, initial_state(4)) == 0

    def test_max_gain_respects_pool(self):
        dm = distance_matrix(path_graph(4))
        assert max_gain_query(dm, initial_state(4), pool=np.array([1, 2])) == 1

    def test_max_gain_pool_ties_to_lowest_index(self):
        dm = distance_matrix(cycle_graph(4))
        # every query scores 2; the pool's order does not break the tie
        assert max_gain_query(dm, initial_state(4), pool=[3, 1]) == 1

    def test_max_gain_history_out_of_range_rejected(self):
        dm = distance_matrix(path_graph(4))
        state = GameState(queries=[7], observations=[1], candidates=np.arange(4))
        with pytest.raises(IndexError, match="^query 7 out of range$"):
            max_gain_query(dm, state)

    @pytest.mark.parametrize("t", [[-1, 1], [1, 4]], ids=["negative", "past-the-end"])
    def test_candidates_out_of_range_rejected(self, t):
        dm = distance_matrix(cycle_graph(4))
        t = np.array(t)
        state = GameState(queries=[], observations=[], candidates=t)
        with pytest.raises(IndexError, match="candidate out of range"):
            distance_partition(dm, t, 0)
        with pytest.raises(IndexError, match="candidate out of range"):
            reducer_score(dm, t, 0)
        with pytest.raises(IndexError, match="candidate out of range"):
            max_gain_query(dm, state)
        for policy in (AdversaryPolicy.greedy_max_cell(), AdversaryPolicy.exact_minimax()):
            with pytest.raises(IndexError, match="candidate out of range"):
                adversary_answer(dm, state, 0, policy)


def test_stepwise_functions_reject_disconnected_graphs():
    """Every stepwise function given a disconnected graph's matrix raises
    DisconnectedGraphError.  The calls run in a child process under a
    1.5 GiB address-space limit: scoring a table that holds UNREACHABLE
    without this check asks for 2**31 cell counts (16 GiB)."""
    code = textwrap.dedent(
        """
        import resource
        import numpy as np
        from seqlocate import *

        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
        dm = distance_matrix(Graph(4, [(0, 1), (2, 3)]))
        state = initial_state(4)
        calls = {
            "distance_partition": lambda: distance_partition(dm, np.arange(4), 0),
            "reducer_score": lambda: reducer_score(dm, np.arange(4), 0),
            "max_gain_query": lambda: max_gain_query(dm, state),
            "f_separator_exists": lambda: f_separator_exists(dm, range(4), 0.5, 0.0),
            "fixed-target": lambda: adversary_answer(dm, state, 0, AdversaryPolicy.fixed_target(3)),
            "greedy-max-cell": lambda: adversary_answer(dm, state, 0, AdversaryPolicy.greedy_max_cell()),
            "exact-minimax": lambda: adversary_answer(dm, state, 0, AdversaryPolicy.exact_minimax()),
        }
        for name, call in calls.items():
            try:
                call()
                print(name, "returned")
            except Exception as exc:
                print(name, type(exc).__name__)
        """
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    results = dict(line.split() for line in done.stdout.splitlines())
    assert len(results) == 7
    assert set(results.values()) == {"DisconnectedGraphError"}, results


class TestAdversaryAnswer:
    def test_fixed_target_reports_true_distance(self):
        dm = distance_matrix(cycle_graph(4))
        policy = AdversaryPolicy.fixed_target(2)
        assert adversary_answer(dm, initial_state(4), 0, policy) == 2

    def test_greedy_keeps_biggest_cell(self):
        dm = distance_matrix(cycle_graph(4))
        ans = adversary_answer(dm, initial_state(4), 0, AdversaryPolicy.greedy_max_cell())
        assert ans == 1  # cell {1, 3} beats the singletons

    def test_greedy_tie_breaks_to_smallest_distance(self):
        dm = distance_matrix(cycle_graph(5))
        # query 0 gives cells {1,4} at distance 1 and {2,3} at distance 2
        ans = adversary_answer(dm, initial_state(5), 0, AdversaryPolicy.greedy_max_cell())
        assert ans == 1

    def test_greedy_on_star(self):
        dm = distance_matrix(star_graph(4))
        ans = adversary_answer(dm, initial_state(5), 1, AdversaryPolicy.greedy_max_cell())
        assert ans == 2  # the three other leaves share distance 2

    def test_exact_picks_worst_branch(self):
        dm = distance_matrix(cycle_graph(4))
        ans = adversary_answer(dm, initial_state(4), 0, AdversaryPolicy.exact_minimax())
        assert ans == 1

    def test_fixed_target_out_of_range(self):
        dm = distance_matrix(cycle_graph(4))
        with pytest.raises(ValueError, match="^target 4 out of range$"):
            adversary_answer(dm, initial_state(4), 0, AdversaryPolicy.fixed_target(4))

    def test_fixed_target_outside_the_candidates(self):
        """Query 1 splits candidates {0, 1} into distances 1 and 0; target
        3, at distance 2, would answer what no candidate gives."""
        dm = distance_matrix(cycle_graph(4))
        state = GameState(queries=[], observations=[], candidates=np.array([0, 1]))
        assert sorted(distance_partition(dm, state.candidates, 1)) == [0, 1]
        with pytest.raises(ValueError, match="^target 3 is not among the candidates$"):
            adversary_answer(dm, state, 1, AdversaryPolicy.fixed_target(3))
        assert adversary_answer(dm, state, 1, AdversaryPolicy.fixed_target(0)) == 1


class TestPlayGame:
    def test_transcript_on_cycle(self):
        dm = distance_matrix(cycle_graph(4))
        t = play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.fixed_target(3))
        assert t.resolved
        assert t.final_candidates.tolist() == [3]
        assert [(s.step, s.query, s.answer, s.candidates) for s in t.steps] == [
            (1, 0, 1, 2),
            (2, 1, 2, 1),
        ]
        assert t.candidate_sizes() == [4, 2, 1]
        assert t.num_steps == 2

    def test_json_lines(self):
        dm = distance_matrix(cycle_graph(4))
        t = play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.fixed_target(3))
        lines = t.to_json_lines().splitlines()
        assert [json.loads(x) for x in lines] == [
            {"step": 1, "query": 0, "answer": 1, "candidates": 2},
            {"step": 2, "query": 1, "answer": 2, "candidates": 1},
        ]
        assert t.to_json_lines().endswith("\n")

    def test_step_cap_leaves_unresolved(self):
        dm = distance_matrix(cycle_graph(4))
        t = play_game(
            dm, Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell(), step_cap=1
        )
        assert not t.resolved
        assert t.num_steps == 1
        assert t.final_candidates.tolist() == [1, 3]

    def test_fixed_sequence_can_resolve(self):
        dm = distance_matrix(cycle_graph(4))
        t = play_game(dm, Player1Policy.fixed_sequence((1,)), AdversaryPolicy.fixed_target(3))
        assert t.resolved
        assert t.num_steps == 1
        assert t.final_candidates.tolist() == [3]

    def test_fixed_sequence_exhaustion(self):
        dm = distance_matrix(cycle_graph(4))
        t = play_game(dm, Player1Policy.fixed_sequence((0,)), AdversaryPolicy.fixed_target(1))
        assert not t.resolved
        assert t.final_candidates.tolist() == [1, 3]

    def test_single_node_game_trivial(self):
        dm = distance_matrix(Graph(1, []))
        t = play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())
        assert t.resolved
        assert t.num_steps == 0
        assert t.final_candidates.tolist() == [0]

    def test_disconnected_rejected(self):
        dm = distance_matrix(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(DisconnectedGraphError):
            play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())

    def test_candidates_shrink_monotonically(self):
        g = connected_sample(30, 0.15, 21)
        dm = distance_matrix(g)
        t = play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())
        sizes = t.candidate_sizes()
        assert t.resolved
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 30 and sizes[-1] == 1

    def test_answers_are_true_distances_for_fixed_target(self):
        g = connected_sample(20, 0.2, 33)
        dm = distance_matrix(g)
        target = 13
        t = play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.fixed_target(target))
        for s in t.steps:
            assert s.answer == dm.d[s.query, target]
        assert t.final_candidates.tolist() == [target]


def _graph_game(p1, p2, step_cap=None):
    """A game on C_4: four targets, four queries."""
    return play_game(distance_matrix(cycle_graph(4)), p1, p2, step_cap)


def _matrix_game(p1, p2, step_cap=None):
    """A game on a 2x4 matrix: four targets, two queries."""
    bits = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)
    return sqc_play(BinaryMatrix(2, 4, bits), p1, p2, step_cap)


@pytest.mark.parametrize("play, queries", [(_graph_game, 4), (_matrix_game, 2)], ids=["graph", "matrix"])
@pytest.mark.parametrize(
    "target, past_end, step_cap, message",
    [
        (4, False, None, "^target 4 out of range$"),
        (0, True, None, "^fixed-sequence node out of range$"),
        (0, False, 0, "^step cap must be >= 1, got 0$"),
        (0, False, -3, "^step cap must be >= 1, got -3$"),
        (0, False, 2.5, "^step cap must be an integer, got 2.5$"),
        (0, False, 2.0, r"^step cap must be an integer, got 2\.0$"),
        (0, False, True, "^step cap must be an integer, got True$"),
        (0, False, "2", "^step cap must be an integer, got '2'$"),
    ],
    ids=["target", "sequence", "cap-0", "cap-negative", "cap-fraction", "cap-float", "cap-bool", "cap-string"],
)
def test_play_rejects_out_of_range_policy_and_cap(play, queries, target, past_end, step_cap, message):
    """The graph game and the matrix game share one set of play checks; a
    ``past_end`` sequence holds the first index past the last query."""
    p1 = Player1Policy.fixed_sequence((0, queries)) if past_end else Player1Policy.max_gain()
    with pytest.raises(ValueError, match=message):
        play(p1, AdversaryPolicy.fixed_target(target), step_cap)


@pytest.mark.parametrize("play", [_graph_game, _matrix_game], ids=["graph", "matrix"])
def test_play_takes_a_numpy_integer_step_cap(play):
    """A numpy integer step cap plays the same steps as the Python int."""
    p1, p2 = Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell()
    expected = play(p1, p2, 1)
    played = play(p1, p2, np.int64(1))
    assert len(played.steps) == len(expected.steps) == 1
    assert played.steps == expected.steps
    assert played.final_candidates.tolist() == expected.final_candidates.tolist()


class TestGameValues:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_paths_need_one_query(self, n):
        assert smd_exact(path_graph(n)) == 1
        assert smd_maxgain_worstcase(path_graph(n)) == 1

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 2), (5, 2), (6, 2)])
    def test_cycles(self, n, expected):
        assert smd_exact(cycle_graph(n)) == expected
        assert smd_maxgain_worstcase(cycle_graph(n)) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graphs(self, n):
        assert smd_exact(complete_graph(n)) == n - 1
        assert smd_maxgain_worstcase(complete_graph(n)) == n - 1

    @pytest.mark.parametrize("leaves,expected", [(2, 1), (3, 2), (4, 3)])
    def test_stars(self, leaves, expected):
        assert smd_exact(star_graph(leaves)) == expected
        assert smd_maxgain_worstcase(star_graph(leaves)) == expected

    def test_single_node(self):
        g = Graph(1, [])
        assert smd_exact(g) == 0
        assert smd_maxgain_worstcase(g) == 0

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            smd_exact(complete_graph(5), cap=2)
        with pytest.raises(CapExceededError):
            smd_maxgain_worstcase(complete_graph(5), cap=2)

    def test_cap_sufficient(self):
        assert smd_exact(complete_graph(5), cap=4) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            smd_exact(Graph(3, [(0, 1)]))

    def test_accepts_precomputed_matrix(self):
        g = connected_sample(14, 0.3, 41)
        dm = distance_matrix(g)
        assert smd_exact(g, dm=dm) == smd_exact(g)
        assert smd_exact(g, cap=9, dm=dm) == smd_exact(g)

    @pytest.mark.parametrize("other_n", [10, 16])
    def test_matrix_of_another_size_rejected(self, other_n):
        dm = distance_matrix(connected_sample(other_n, 0.3, 42))
        with pytest.raises(ValueError, match=f"distance matrix has {other_n} nodes, graph has 14"):
            smd_exact(connected_sample(14, 0.3, 41), dm=dm)

    def test_exact_play_matches_exact_value(self):
        for g in [cycle_graph(4), cycle_graph(6), star_graph(4), complete_graph(5)]:
            dm = distance_matrix(g)
            t = play_game(dm, Player1Policy.exact_minimax(), AdversaryPolicy.exact_minimax())
            assert t.resolved
            assert t.num_steps == smd_exact(g)

    def test_greedy_adversary_play_bounded_by_worstcase(self):
        for seed in range(8):
            g = connected_sample(14, 0.3, 4_000 + seed)
            dm = distance_matrix(g)
            t = play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())
            worst = smd_maxgain_worstcase(g)
            assert t.resolved
            assert smd_exact(g) <= t.num_steps <= worst

    def test_worstcase_attained_by_some_target(self):
        g = connected_sample(10, 0.35, 17)
        dm = distance_matrix(g)
        worst = smd_maxgain_worstcase(g)
        best = max(
            play_game(dm, Player1Policy.max_gain(), AdversaryPolicy.fixed_target(v)).num_steps
            for v in range(g.n)
        )
        # every fixed target is a legal adversary, including the worst one
        assert best <= worst


class TestFSeparator:
    def test_full_cycle_has_half_separator(self):
        dm = distance_matrix(cycle_graph(4))
        found, witness = f_separator_exists(dm, tuple(range(4)), 0.5, 0.0)
        assert found and witness == 0

    def test_no_quarter_separator_on_cycle(self):
        dm = distance_matrix(cycle_graph(4))
        assert f_separator_exists(dm, tuple(range(4)), 0.25, 0.0) == (False, None)

    def test_additive_slack_rescues(self):
        dm = distance_matrix(cycle_graph(4))
        found, witness = f_separator_exists(dm, tuple(range(4)), 0.25, 1.0)
        assert found and witness == 0

    def test_first_witness_in_index_order(self):
        dm = distance_matrix(cycle_graph(4))
        found, witness = f_separator_exists(dm, (1, 3), 0.5, 0.0)
        assert found and witness == 1  # query 0 leaves the pair unsplit

    def test_validation(self):
        dm = distance_matrix(cycle_graph(4))
        with pytest.raises(ValueError):
            f_separator_exists(dm, (), 0.5, 0.0)
        with pytest.raises(IndexError):
            f_separator_exists(dm, (9,), 0.5, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=5_000),
)
def test_value_chain(n, seed):
    """Optimal adaptive play never beats the greedy player or a resolving set."""
    g = sample_gnp(n, 0.5, seed)
    if not is_connected(g):
        return
    s = smd_exact(g)
    w = smd_maxgain_worstcase(g)
    m, _ = md_exact(g)
    assert 0 <= s <= w <= g.n - 1
    assert s <= m <= g.n - 1
    # w <= m is NOT asserted: one-step lookahead can lose to the metric
    # dimension on small dense graphs (see the regression test below).


def test_maxgain_can_exceed_metric_dimension():
    """Pin a graph where the greedy player needs more queries than MD.

    Every first query here has worst cell size 3; the tie-break picks node
    0, whose worst cell {1, 3, 4} admits no single resolving query, while
    node 1's worst cell {0, 2, 5} does.  One-step lookahead cannot tell
    these apart, so the greedy worst case is 3 against MD = 2.
    """
    g = Graph(
        6,
        [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)],
    )
    assert md_exact(g)[0] == 2
    assert smd_exact(g) == 2
    assert smd_maxgain_worstcase(g) == 3


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=3_000),
)
def test_exact_value_is_minimax(n, seed):
    """No adversary can beat the exact value against the exact player."""
    g = sample_gnp(n, 0.5, seed)
    if not is_connected(g):
        return
    dm = distance_matrix(g)
    value = smd_exact(g)
    for v in range(n):
        t = play_game(dm, Player1Policy.exact_minimax(), AdversaryPolicy.fixed_target(v))
        assert t.resolved
        assert t.num_steps <= value
