"""Graph construction, BFS distances, level sets, and edge-list round trips."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import complete_graph, cycle_graph, path_graph, star_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocate import (
    UNREACHABLE,
    Graph,
    GraphFormatError,
    bfs_distances,
    diameter,
    distance_matrix,
    distances_from_sources,
    is_connected,
    level_set,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)
from seqlocate import graphs


def neighbours(g: Graph) -> list[list[int]]:
    """Each node's CSR row, as lists."""
    return [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(g.n)]


def floyd_warshall(g: Graph) -> np.ndarray:
    """Independent distance oracle for cross-checking the BFS engines."""
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, row in enumerate(neighbours(g)):
        for v in row:
            d[u][v] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return np.array([[UNREACHABLE if x == inf else int(x) for x in row] for row in d])


@pytest.fixture(params=["default", "budget-1"])
def block_budget(request, monkeypatch):
    """Run the multi-source BFS at its own block budget, and at one word,
    where every block holds a single node, with first passes of one arc,
    so that a node's arc list spans several passes per level."""
    if request.param == "budget-1":
        monkeypatch.setattr(graphs, "_BLOCK_WORDS", 1)
        monkeypatch.setattr(graphs, "_first_run", lambda lanes_set, n, s: 1)
    return request.param


def lollipop_graph() -> Graph:
    """K_40 on nodes 0..39 joined at node 39 to the path 39-40-...-99."""
    clique = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    return Graph(100, clique + [(i, i + 1) for i in range(39, 99)])


def assert_csr(g: Graph) -> None:
    assert g.indptr.shape == (g.n + 1,)
    assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert (np.diff(g.indptr) >= 0).all()
    assert g.indices.dtype == np.int32
    for v in range(g.n):
        row = g.indices[g.indptr[v]:g.indptr[v + 1]]
        assert (np.diff(row) > 0).all()
        assert g.degree(v) == row.size
    assert g.num_edges == g.indices.size // 2


class TestConstruction:
    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 1), (0, 3), (1, 0)])
        assert neighbours(g) == [[1, 3], [0, 2], [1], [0]]
        assert g.num_edges == 3
        assert g.indptr.tolist() == [0, 2, 4, 5, 6]
        assert g.indices.tolist() == [1, 3, 0, 2, 1, 0]

    @pytest.mark.parametrize(
        "n, p, seed", [(1, 0.5, 0), (2, 1.0, 0), (9, 0.0, 0), (30, 0.2, 1), (120, 0.05, 2), (200, 0.6, 3)]
    )
    def test_csr_invariants_from_shuffled_edges(self, n, p, seed):
        ref = sample_gnp(n, p, seed)
        assert_csr(ref)
        rng = np.random.default_rng(seed)
        edges = np.array(ref.edges(), dtype=np.int64).reshape(-1, 2)
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        for g in (Graph(n, edges.tolist()), Graph(n, edges)):
            assert_csr(g)
            assert g.num_edges == len(edges)
            assert np.array_equal(g.indptr, ref.indptr)
            assert np.array_equal(g.indices, ref.indices)
            assert g.edges() == ref.edges()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge_any_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 0), (3, 3)], r"^duplicate edge \(1, 0\)$"),
            ([(0, 1), (5, 5), (1, 0)], r"^edge \(5, 5\) out of range for n=3$"),
            ([(2, 2), (0, 1), (1, 0)], r"^self-loop at node 2$"),
            # (0, 3) out of range shares the arc key 3 = 1*3 + 0 of (1, 0)
            ([(1, 0), (0, 3)], r"^edge \(0, 3\) out of range for n=3$"),
            # an end past int64 is found on Python ints
            ([(0, 1), (0, 2**70)], r"^edge \(0, 1180591620717411303424\) out of range for n=3$"),
        ],
    )
    def test_names_first_bad_edge_in_input_order(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param([(0.5, 1.7)], id="float-list"),
            pytest.param(np.array([[0.9, 2.2]]), id="float-array"),
            pytest.param([(1.0, 2.0)], id="integral-float"),
            pytest.param([("0", "2")], id="string"),
            pytest.param(np.array([[0, 1]], dtype=np.float32), id="float32-array"),
            pytest.param(np.array([[0, 1.5]], dtype=object), id="object-array-float"),
        ],
    )
    def test_rejects_ends_that_are_not_integers(self, edges):
        with pytest.raises(ValueError, match="^edge ends must be integers, got dtype "):
            Graph(3, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param([(True, False), (1, 2)], id="bool-and-int-list"),
            pytest.param(np.array([[1, 0], [1, 2]], dtype=np.uint64), id="uint64-array"),
            pytest.param(np.array([[0, 1], [2, 1]], dtype=object), id="object-array-int"),
            pytest.param([(np.int32(0), 1), (1, np.int64(2))], id="numpy-scalars"),
        ],
    )
    def test_accepts_integer_ends(self, edges):
        assert Graph(3, edges).edges() == [(0, 1), (1, 2)]

    def test_degree_rejects_node_out_of_range(self):
        g = cycle_graph(10)
        assert [g.degree(v) for v in range(10)] == [2] * 10
        for v in (-1, 10):
            with pytest.raises(IndexError, match=f"^node {v} out of range$"):
                g.degree(v)

    def test_rejects_edge_that_is_not_a_pair(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            pytest.param([(0, None)], r"^edge ends must be integers, got dtype object$", id="none-end"),
            pytest.param([(0, "a")], r"^edge ends must be integers, got dtype <U21$", id="word-end"),
            pytest.param([(0, 1), (2,)], r"^edge \(2,\) is not a pair$", id="ragged"),
            pytest.param([[0, 1, 2]], r"^edge \[0, 1, 2\] is not a pair$", id="triple"),
            pytest.param([(0, 1), 5], r"^edge 5 is not a pair$", id="scalar"),
            pytest.param([(0, 1), ((0,), 1)], r"^edge \(\(0,\), 1\) is not a pair$", id="nested"),
            pytest.param(
                np.zeros((1, 3), dtype=np.int64), r"^edges must be an \(m, 2\) array, got shape \(1, 3\)$",
                id="array-of-triples",
            ),
        ],
    )
    def test_names_edge_that_is_not_a_pair_of_integers(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, edges)

    # The last n whose arc keys fit int32, and the first past it.
    @pytest.mark.parametrize("n", [46340, 46341])
    def test_csr_keys_either_side_of_int32(self, n):
        edges = [(n - 1, 0), (0, 1), (n - 2, n - 1), (1, n - 1), (n // 2, 3)]
        g = Graph(n, edges)
        arcs = sorted(edges + [(b, a) for a, b in edges])
        assert g.indptr.tolist() == [0, *np.cumsum(np.bincount([a for a, _ in arcs], minlength=n)).tolist()]
        assert g.indices.tolist() == [b for _, b in arcs]
        assert g.indices.dtype == np.int32
        for bad, message in (
            ([(0, n)], rf"^edge \(0, {n}\) out of range for n={n}$"),
            ([(n - 1, n - 1)], rf"^self-loop at node {n - 1}$"),
            ([(n - 1, 0), (0, n - 1)], rf"^duplicate edge \(0, {n - 1}\)$"),
        ):
            with pytest.raises(ValueError, match=message):
                Graph(n, edges[1:] + bad)

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            Graph(0, [])


class TestDistances:
    def test_path_bfs_from_end(self):
        g = path_graph(4)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3]

    def test_cycle_matrix(self):
        dm = distance_matrix(cycle_graph(4))
        expected = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
        assert dm.d.tolist() == expected

    def test_matrix_symmetric_zero_diagonal(self):
        g = sample_gnp(40, 0.15, 5)
        dm = distance_matrix(g)
        assert (dm.d == dm.d.T).all()
        assert (np.diag(dm.d) == 0).all()

    def test_disconnected_sentinel(self):
        g = Graph(3, [(0, 1)])
        d = bfs_distances(g, 0)
        assert d.tolist() == [0, 1, UNREACHABLE]
        assert d[2] > d[1]  # sentinel strictly dominates real distances

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            bfs_distances(path_graph(3), 3)

    def test_matrix_shape_must_match_node_count(self):
        with pytest.raises(ValueError, match="^distance matrix shape does not match node count$"):
            graphs.DistanceMatrix(3, np.zeros((3, 4), dtype=np.int32))

    @pytest.mark.parametrize(
        "table, message",
        [
            # Row reads and column counts disagree on it: query 0 reads a
            # largest cell of 1 from its row, 2 from its column.
            (np.array([[0, 1, 2], [1, 0, 1], [1, 1, 0]]), "symmetric"),
            # Only row 0 is read for the no-path value.
            (np.array([[0, 1], [255, 0]], dtype=np.uint8), "symmetric"),
            (np.array([[0, 1], [UNREACHABLE, 0]], dtype=np.int32), "symmetric"),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), "integer numpy array"),
            (np.array([[False, True], [True, False]]), "integer numpy array"),
            (np.array([[0, 1], [1, 1]]), "zero diagonal"),
            ([[0, 1], [1, 0]], "integer numpy array"),
            # The engine's label table rejects it only at first use.
            (np.array([[0, -1], [-1, 0]]), r"entries must be in 0\.\.1 or the no-path value"),
            # The engine would size its counts from 2**40 labels.
            (np.array([[0, 2**40], [2**40, 0]], dtype=np.int64), r"entries must be in 0\.\.1 or the no-path value"),
            # The engine and diameter would fail on it only at first use.
            (np.zeros((0, 0), dtype=np.uint8), "^node count must be positive, got 0$"),
        ],
        ids=["asymmetric", "no-path-below-row-0-uint8", "no-path-below-row-0-int32", "float", "bool",
             "nonzero-diagonal", "list", "negative", "past-n-minus-1", "no-nodes"],
    )
    def test_hand_built_table_rule(self, table, message):
        with pytest.raises(ValueError, match=message):
            graphs.DistanceMatrix(len(table), table)

    def test_matrices_compare_by_identity(self):
        dm = distance_matrix(cycle_graph(5))
        twin = graphs.DistanceMatrix(5, dm.table.copy())
        assert dm != twin and dm not in [twin]
        assert dm == dm and dm in [twin, dm]
        assert len({dm, twin, dm}) == 2

    def test_graph_built_matrix_skips_the_table_check(self, monkeypatch):
        """``distance_matrix`` writes a table that meets the rule, so it
        does not pay the O(n**2) check; a hand-built matrix does."""

        def refuse(self):
            raise AssertionError("checked")

        monkeypatch.setattr(graphs.DistanceMatrix, "__post_init__", refuse)
        dm = distance_matrix(cycle_graph(5))
        assert dm.d.tolist() == [[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)]
        with pytest.raises(AssertionError, match="checked"):
            graphs.DistanceMatrix(5, dm.table)

    @pytest.mark.parametrize("seed", range(12))
    def test_engine_matches_plain_bfs(self, seed, block_budget):
        # p runs from 0.04 (disconnected, isolated nodes) to 0.26.
        g = sample_gnp(50, 0.04 + 0.02 * seed, 100 + seed)
        dm = distance_matrix(g)
        # distance_matrix takes the one-word table at n = 50; the blocked
        # kernel is checked here too, at both block budgets.
        blocked = graphs._widened(graphs._distance_table(g, np.arange(50)))
        for v in range(50):
            assert (dm.d[v] == bfs_distances(g, v)).all()
            assert (blocked[v] == bfs_distances(g, v)).all()

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(Graph(1, []), id="single-node"),
            pytest.param(Graph(9, [(1, 2), (2, 3), (5, 6)]), id="isolated-nodes"),
            pytest.param(path_graph(66), id="path-66"),
            pytest.param(cycle_graph(67), id="cycle-67"),
            pytest.param(lollipop_graph(), id="lollipop-40-60"),
        ]
        + [
            pytest.param(sample_gnp(n, p, seed), id=f"gnp-{n}-{p}-{seed}")
            for n, p, seed in (
                (7, 0.3, 1),
                (70, 0.01, 2),
                (70, 0.05, 3),
                (130, 0.02, 4),
                (130, 0.1, 5),
                (130, 0.5, 8),
                (200, 0.006, 6),
                (300, 0.03, 7),
            )
        ],
    )
    def test_source_subsets_match_plain_bfs(self, g, block_budget):
        # Unsorted sources, one to three words of lanes, then every node in
        # order and reversed; lane order must follow the caller's order.
        ref = np.array([bfs_distances(g, v) for v in range(g.n)])
        rng = np.random.default_rng(g.n)
        subsets = [rng.permutation(g.n)[:k] for k in (1, 63, 64, 65, 128) if k <= g.n]
        subsets += [np.arange(g.n), np.arange(g.n)[::-1]]
        for sources in subsets:
            got = distances_from_sources(g, sources)
            assert got.shape == (len(sources), g.n)
            assert got.dtype == np.int32 and got.flags.c_contiguous
            assert (got == ref[sources]).all()

    def test_lollipop_takes_both_write_forms(self, block_budget, monkeypatch):
        # From the clique's nodes, the first path nodes gain every lane at
        # once and the rest of a level gains few: one call writes both ways.
        g = lollipop_graph()
        rule, picks = graphs._few_gained, []

        def record(gained):
            picks.append(rule(gained))
            return picks[-1]

        monkeypatch.setattr(graphs, "_few_gained", record)
        sources = np.arange(40)
        got = distances_from_sources(g, sources)
        assert (got == [bfs_distances(g, v) for v in sources]).all()
        assert set(picks) == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_engine_matches_floyd_warshall(self, seed):
        g = sample_gnp(25, 0.12, 3000 + seed)
        assert (distance_matrix(g).d == floyd_warshall(g)).all()

    def test_subset_sources_agree_with_full_matrix(self):
        g = sample_gnp(60, 0.08, 77)
        dm = distance_matrix(g)
        sources = np.array([3, 11, 40, 59])
        assert (distances_from_sources(g, sources) == dm.d[sources]).all()

    def test_sources_validated(self):
        g = path_graph(5)
        for sources in ([1, 1], [3, 0, 4, 3]):  # duplicates side by side and apart
            with pytest.raises(ValueError, match="^duplicate source nodes$"):
                distances_from_sources(g, sources)
        with pytest.raises(IndexError):
            distances_from_sources(g, [7])
        with pytest.raises(ValueError):
            distances_from_sources(g, [])

    def test_wide_source_set_crosses_word_boundary(self):
        # more than 64 sources exercises the multi-word bitset path
        g = sample_gnp(130, 0.05, 11)
        dm = distance_matrix(g)
        assert dm.d.shape == (130, 130)
        assert (dm.d[77] == bfs_distances(g, 77)).all()


def assert_one_word_table(g: Graph) -> None:
    """The one-word table is the blocked kernel's in values and dtype, and
    each row is plain BFS."""
    table = graphs._one_word_table(g)
    blocked = graphs._distance_table(g, np.arange(g.n))
    assert table.dtype == blocked.dtype == np.uint8
    assert np.array_equal(table, blocked)
    wide = graphs._widened(table)
    for v in range(g.n):
        assert (wide[v] == bfs_distances(g, v)).all()


class TestOneWordTable:
    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(Graph(1, []), id="single-node"),
            pytest.param(Graph(6, []), id="edgeless-6"),
            pytest.param(Graph(9, [(1, 2), (2, 3), (5, 6)]), id="isolated-nodes"),
            pytest.param(Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]), id="two-components"),
            pytest.param(path_graph(64), id="P_64"),
            pytest.param(cycle_graph(64), id="C_64"),
            pytest.param(star_graph(63), id="S_64"),
            pytest.param(complete_graph(64), id="K_64"),
        ]
        + [pytest.param(sample_gnp(64, p, 1), id=f"gnp-64-{p}") for p in (0.05, 0.3, 0.9)],
    )
    def test_matches_blocked_kernel_and_plain_bfs(self, g):
        assert_one_word_table(g)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=64))
    def test_random_graphs_match(self, data, n):
        # Edge sets drawn directly (any shape), or G(n, p) at any density.
        if data.draw(st.booleans()):
            pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
            g = Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
        else:
            g = sample_gnp(n, data.draw(st.floats(0.0, 1.0)), data.draw(st.integers(0, 10_000)))
        assert_one_word_table(g)

    def test_kernel_chosen_by_word_width(self, monkeypatch):
        """64 nodes fit one word of lanes and take the one-word table; 65
        take the blocked kernel."""
        calls = []

        def spy(name):
            kernel = getattr(graphs, name)

            def call(g, *args):
                calls.append((name, g.n))
                return kernel(g, *args)

            return call

        for name in ("_one_word_table", "_distance_table"):
            monkeypatch.setattr(graphs, name, spy(name))
        for n in (64, 65):
            dm = distance_matrix(path_graph(n))
            assert dm.table.dtype == np.uint8 and diameter(dm) == n - 1
        assert calls == [("_one_word_table", 64), ("_distance_table", 65)]


class TestLevelsAndDiameter:
    def test_level_set_cycle(self):
        dm = distance_matrix(cycle_graph(4))
        assert level_set(dm, 0, 1).tolist() == [1, 3]
        assert level_set(dm, 0, 2).tolist() == [2]
        assert level_set(dm, 0, 5).tolist() == []

    def test_levels_partition_nodes(self):
        g = sample_gnp(30, 0.2, 9)
        dm = distance_matrix(g)
        pieces = [level_set(dm, 4, l) for l in range(int(dm.d[4].max()) + 1)]
        merged = sorted(int(v) for piece in pieces for v in piece)
        assert merged == list(range(30))

    @pytest.mark.parametrize("v", [-1, 4])
    def test_level_set_node_out_of_range(self, v):
        with pytest.raises(IndexError, match=f"^node {v} out of range$"):
            level_set(distance_matrix(cycle_graph(4)), v, 1)

    def test_path_diameter(self):
        assert diameter(distance_matrix(path_graph(4))) == 3

    def test_single_node(self):
        assert diameter(distance_matrix(Graph(1, []))) == 0

    def test_disconnected_diameter_flag(self):
        assert diameter(distance_matrix(Graph(2, []))) == UNREACHABLE

    def test_is_connected(self):
        assert is_connected(cycle_graph(5))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(Graph(1, []), id="single-node"),
            pytest.param(Graph(2, []), id="edgeless-2"),
            pytest.param(Graph(6, []), id="edgeless-6"),
            pytest.param(Graph(4, [(0, 1), (2, 3)]), id="two-components"),
            pytest.param(Graph(5, [(1, 2), (2, 3), (3, 4)]), id="isolated-source"),
            pytest.param(Graph(5, [(0, 1), (1, 2), (2, 3)]), id="isolated-last"),
            pytest.param(path_graph(40), id="path-40"),
            pytest.param(cycle_graph(41), id="cycle-41"),
            pytest.param(complete_graph(9), id="complete-9"),
            # Level 2's frontier is the 200 leaves, read in chunks of 32, 64
            # and 128 nodes: the pendant on the last leaf only in the last.
            pytest.param(Graph(202, [(0, i) for i in range(1, 201)] + [(200, 201)]), id="star-200-pendant-last"),
            # Every other node is seen within the first chunk of level 2.
            pytest.param(Graph(301, sample_gnp(300, 0.3, 0).edges()), id="gnp-300-0.3-plus-isolated"),
        ]
        + [
            pytest.param(sample_gnp(n, p, seed), id=f"gnp-{n}-{p}-{seed}")
            for n, p in ((30, 0.12), (60, 0.07), (200, 0.027), (100, 0.3), (300, 0.5))
            for seed in range(4)
        ],
    )
    def test_is_connected_matches_bfs(self, g):
        assert is_connected(g) == bool((bfs_distances(g, 0) != UNREACHABLE).all())

    def test_is_connected_stops_once_every_node_is_seen(self, monkeypatch):
        """On G(1000, 0.3) the check reads node 0's arcs and one chunk of
        level 2, a few percent of the arcs, not every arc of level 2."""
        g = sample_gnp(1000, 0.3, 0)
        runs = graphs._runs
        read = []

        def spy(first, count):
            read.append(int(count.sum()))
            return runs(first, count)

        monkeypatch.setattr(graphs, "_runs", spy)
        assert is_connected(g)
        assert len(read) == 2 and sum(read) < g.indices.size // 20

    def test_is_connected_sparse_samples_have_both_answers(self):
        # The sparse samples sit near the connectivity threshold ln(n)/n.
        answers = {
            is_connected(sample_gnp(n, p, seed))
            for n, p in ((30, 0.12), (60, 0.07), (200, 0.027))
            for seed in range(4)
        }
        assert answers == {True, False}


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (0, 4), (2, 3)])
        text = write_edge_list(g)
        assert text == "5 3\n0 1\n0 4\n2 3\n"
        g2 = read_edge_list(text)
        assert g2.n == g.n
        assert neighbours(g2) == neighbours(g)

    def test_round_trip_random(self):
        g = sample_gnp(30, 0.2, 77)
        g2 = read_edge_list(write_edge_list(g))
        assert neighbours(g2) == neighbours(g)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "0 0\n",  # no nodes
            "3 x\n",  # header value not an integer
            "3 1\n0 1\n2 2\n",  # count mismatch plus extra line
            "3 1\n0 3\n",  # index out of range
            "3 1\n1 1\n",  # self-loop
            "3 2\n0 1\n1 0\n",  # duplicate
            "3 1\nx y\n",
            "3 2\n0 1\n",  # fewer edges than promised
            "3 2\n0 1 2\n1\n",  # ragged lines, an even token total
            "3 1\n99999999999999999999 1\n",  # past int64
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphFormatError):
            read_edge_list(text)

    def test_end_past_int64_named_in_message(self):
        with pytest.raises(GraphFormatError, match=r"^edge \(0, 99999999999999999999\) out of range for n=3$"):
            read_edge_list("3 1\n0 99999999999999999999\n")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_distance_invariant_under_relabeling(n, seed, data):
    """Relabeling nodes permutes the distance matrix accordingly."""
    g = sample_gnp(n, 0.5, seed)
    perm = data.draw(st.permutations(range(n)))
    relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    d1 = distance_matrix(g).d
    d2 = distance_matrix(relabeled).d
    p = np.array(perm)
    assert (d2[np.ix_(p, p)] == d1).all()


def test_complete_graph_distances_all_one():
    dm = distance_matrix(complete_graph(6))
    off = dm.d[~np.eye(6, dtype=bool)]
    assert (off == 1).all()
