"""Resolving sets, metric dimension (exact and greedy), candidate filtering."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from conftest import complete_graph, cycle_graph, path_graph, star_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocate import (
    CapExceededError,
    DisconnectedGraphError,
    Graph,
    QuerySet,
    candidate_targets,
    distance_matrix,
    is_connected,
    is_resolving,
    md_exact,
    md_greedy,
    observation_vector,
    sample_gnp,
)


def connected_sample(n: int, p: float, seed: int) -> Graph:
    while True:
        g = sample_gnp(n, p, seed)
        if is_connected(g):
            return g
        seed += 10_000


def brute_force_md(g: Graph) -> int:
    """Smallest resolving set by subset enumeration, for cross-checks."""
    dm = distance_matrix(g)
    if g.n <= 1:
        return 0
    for k in range(1, g.n):
        for combo in combinations(range(g.n), k):
            if is_resolving(dm, QuerySet(combo)):
                return k
    return g.n - 1


class TestQuerySet:
    def test_basics(self):
        r = QuerySet((2, 0, 5))
        assert len(r) == 3
        assert list(r) == [2, 0, 5]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            QuerySet((1, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QuerySet((0, -2))

    def test_empty_allowed(self):
        assert len(QuerySet(())) == 0


class TestObservations:
    def test_vector_on_cycle(self):
        dm = distance_matrix(cycle_graph(4))
        assert observation_vector(dm, QuerySet((0, 1)), 3).tolist() == [1, 2]

    def test_candidates_after_one_query(self):
        dm = distance_matrix(cycle_graph(4))
        out = candidate_targets(dm, QuerySet((0,)), [1])
        assert out.tolist() == [1, 3]

    def test_candidates_empty_set_returns_everyone(self):
        dm = distance_matrix(path_graph(5))
        assert candidate_targets(dm, QuerySet(()), []).tolist() == [0, 1, 2, 3, 4]

    def test_candidates_of_full_observation_single_target(self):
        g = connected_sample(30, 0.2, 4)
        dm = distance_matrix(g)
        r = md_greedy(g, dm)
        for v in range(g.n):
            obs = observation_vector(dm, r, v)
            assert candidate_targets(dm, r, obs).tolist() == [v]

    def test_inconsistent_observation_yields_no_candidates(self):
        dm = distance_matrix(path_graph(4))
        # node at distance 0 from both ends of P4 does not exist
        assert candidate_targets(dm, QuerySet((0, 3)), [0, 0]).size == 0

    @pytest.mark.parametrize("nodes", [(0, 4), (4, 0), (4, 5)])
    def test_query_out_of_range_rejected(self, nodes):
        """Every reader of a query set names the first query outside the graph."""
        dm = distance_matrix(cycle_graph(4))
        r = QuerySet(nodes)
        for call in (
            lambda: is_resolving(dm, r),
            lambda: observation_vector(dm, r, 0),
            lambda: candidate_targets(dm, r, [0, 0]),
        ):
            with pytest.raises(IndexError, match="^query 4 out of range$"):
                call()

    @pytest.mark.parametrize("v", [-1, 4])
    def test_target_out_of_range_rejected(self, v):
        dm = distance_matrix(cycle_graph(4))
        with pytest.raises(IndexError, match=f"^target {v} out of range$"):
            observation_vector(dm, QuerySet((0,)), v)

    def test_observation_length_must_match(self):
        dm = distance_matrix(cycle_graph(4))
        with pytest.raises(ValueError, match=r"^observation length 1 != \|R\| = 2$"):
            candidate_targets(dm, QuerySet((0, 1)), [1])


class TestIsResolving:
    def test_path_single_end_resolves(self):
        dm = distance_matrix(path_graph(4))
        assert is_resolving(dm, QuerySet((0,)))
        assert is_resolving(dm, QuerySet((3,)))
        assert not is_resolving(dm, QuerySet((1,)))

    def test_empty_set(self):
        assert is_resolving(distance_matrix(Graph(1, [])), QuerySet(()))
        assert not is_resolving(distance_matrix(path_graph(2)), QuerySet(()))

    def test_full_set_always_resolves(self):
        g = sample_gnp(12, 0.3, 6)
        dm = distance_matrix(g)
        assert is_resolving(dm, QuerySet(tuple(range(12))))

    @staticmethod
    def unique_columns_check(dm, r: QuerySet) -> bool:
        """The check as it was: count the distinct signature columns."""
        rows = np.asarray(r.nodes, dtype=np.int64)
        if rows.size == 0:
            return dm.n <= 1
        return np.unique(dm.d[rows], axis=1).shape[1] == dm.n

    def test_matches_unique_columns_check(self):
        rng = np.random.default_rng(17)
        graphs = [Graph(1, []), path_graph(2), cycle_graph(7), star_graph(5), complete_graph(4)]
        graphs += [connected_sample(n, p, 40 + n) for n in (10, 30, 60) for p in (0.1, 0.3, 0.8)]
        seen = set()
        for g in graphs:
            dm = distance_matrix(g)
            sets = [QuerySet(()), QuerySet((0,)), QuerySet(tuple(range(g.n)))]
            for _ in range(30):
                size = int(rng.integers(1, g.n + 1))
                sets.append(QuerySet(tuple(rng.choice(g.n, size=size, replace=False).tolist())))
            if g.n > 1:
                sets.append(md_greedy(g, dm))
            for r in sets:
                expected = self.unique_columns_check(dm, r)
                assert is_resolving(dm, r) is expected
                seen.add(expected)
        assert seen == {True, False}


    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(29)
        seen = set()
        for n, p, seed in [(6, 0.5, 1), (12, 0.3, 2), (20, 0.2, 3), (30, 0.15, 4)]:
            dm = distance_matrix(connected_sample(n, p, seed))
            for _ in range(25):
                size = int(rng.integers(1, min(n, 6) + 1))
                r = QuerySet(tuple(rng.choice(n, size=size, replace=False).tolist()))
                expected = all(
                    any(dm.d[w, u] != dm.d[w, v] for w in r)
                    for u, v in combinations(range(n), 2)
                )
                assert is_resolving(dm, r) is expected
                seen.add(expected)
        assert seen == {True, False}


class TestExact:
    def test_path(self):
        assert md_exact(path_graph(4)) == (1, QuerySet((0,)))

    def test_cycle(self):
        size, r = md_exact(cycle_graph(4))
        assert size == 2
        assert r == QuerySet((0, 1))  # lexicographically first witness

    def test_complete(self):
        size, r = md_exact(complete_graph(4))
        assert size == 3
        assert r == QuerySet((0, 1, 2))

    def test_star(self):
        size, _ = md_exact(star_graph(4))
        assert size == 3

    def test_single_node(self):
        assert md_exact(Graph(1, [])) == (0, QuerySet(()))

    def test_two_nodes(self):
        size, _ = md_exact(path_graph(2))
        assert size == 1

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            md_exact(complete_graph(5), cap=2)

    def test_cap_sufficient(self):
        size, _ = md_exact(complete_graph(5), cap=4)
        assert size == 4

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            md_exact(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        g = connected_sample(7, 0.4, 500 + seed)
        size, r = md_exact(g)
        assert size == brute_force_md(g)
        assert is_resolving(distance_matrix(g), r)


class TestGreedy:
    def test_cycle_six(self):
        assert md_greedy(cycle_graph(6)) == QuerySet((0, 1))

    def test_result_is_resolving(self):
        for seed in range(10):
            g = connected_sample(40, 0.12, 900 + seed)
            dm = distance_matrix(g)
            assert is_resolving(dm, md_greedy(g, dm))

    def test_single_node(self):
        assert md_greedy(Graph(1, [])) == QuerySet(())

    def test_accepts_precomputed_matrix(self):
        g = cycle_graph(5)
        dm = distance_matrix(g)
        assert md_greedy(g, dm) == md_greedy(g)

    @pytest.mark.parametrize("other_n", [20, 40])
    def test_matrix_of_another_size_rejected(self, other_n):
        g = connected_sample(30, 0.3, 7)
        dm = distance_matrix(connected_sample(other_n, 0.3, 8))
        with pytest.raises(ValueError, match=f"distance matrix has {other_n} nodes, graph has 30"):
            md_greedy(g, dm=dm)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            md_greedy(Graph(3, [(0, 1)]))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=5_000),
)
def test_exact_at_most_greedy(n, seed):
    g = sample_gnp(n, 0.55, seed)
    if not is_connected(g):
        return
    size, r = md_exact(g)
    greedy = md_greedy(g)
    dm = distance_matrix(g)
    assert is_resolving(dm, r)
    assert is_resolving(dm, greedy)
    assert size <= len(greedy)
    assert size <= g.n - 1


@pytest.mark.parametrize("obs", [[1.5], [0.5], [2**70]], ids=["one-and-a-half", "half", "past-int64"])
def test_non_integer_observation_matches_no_node(obs):
    """Observations are compared as given, never truncated to an integer."""
    dm = distance_matrix(path_graph(4))
    assert candidate_targets(dm, QuerySet((0,)), obs).size == 0
    assert candidate_targets(dm, QuerySet((0,)), [1.0]).tolist() == [1]
