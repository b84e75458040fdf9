"""The exact solvers against the solvers they replaced.

``ReferenceEngine`` keeps the memoized exact-value minimax (and the
player-1 choice and adversary answer built on it) that computed every
game value before the bounded decision search; ``reference_pair_masks``
and ``reference_min_separating_subset`` keep the pair-mask loop and the
cardinality-by-cardinality scan over ``combinations`` that computed MD and
QC before any pruned subset search.  ``index_order_min_separating_subset``
keeps the depth-first search over queries in index order, with its union
prune, that the hitting-set search replaced; it is fast enough to check
graphs of 24 to 40 nodes, where the scan over ``combinations`` is not.
The new solvers must give the same values, the same lexicographically
first witnesses, the same played transcripts and the same errors.
"""

from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest
from conftest import (
    complete_graph, criterion_1_graphs, cycle_graph, path_graph, reference_cells, reference_worst_value, star_graph,
)

from seqlocate import (
    AdversaryPolicy,
    BinaryMatrix,
    CapExceededError,
    Graph,
    Player1Policy,
    columns_pairwise_distinct,
    distance_matrix,
    is_connected,
    md_exact,
    qc_exact,
    sample_bernoulli,
    sample_gnp,
    smd_exact,
    smd_maxgain_worstcase,
    sqc_exact,
    sqc_maxgain_worstcase,
)
from seqlocate import game
from seqlocate.game import _LabelGameEngine, _play_on_labels
from seqlocate.localization import (
    _bitsets, _cover_test, _min_separating_subset, _scarcest_first, _smallest_separating_set,
)


class ReferenceEngine(_LabelGameEngine):
    """Exact-value minimax: every reachable candidate set gets its value."""

    def __init__(self, table: np.ndarray, **kwargs) -> None:
        super().__init__(table, **kwargs)
        self._value_memo: dict[int, int] = {}
        self._reference_cells = reference_cells(self.table.T)

    def _split(self, mask: int, w: int) -> list[int] | None:
        """Nonempty cells of mask under w, or None when w does not split."""
        out = []
        for cm in self._reference_cells[w].values():
            cell = mask & cm
            if cell == mask:
                return None
            if cell:
                out.append(cell)
        return out

    def minimax_value(self, mask: int | None = None) -> int:
        if mask is None:
            mask = self.full_mask
        memo = self._value_memo

        def value(m: int) -> int:
            if m & (m - 1) == 0:
                return 0
            cached = memo.get(m)
            if cached is not None:
                return cached
            best: int | None = None
            for w in range(self.nq):
                cells = self._split(m, w)
                if cells is None:
                    continue
                worst = 0
                for cell in cells:
                    v = value(cell) + 1
                    if v > worst:
                        worst = v
                    if best is not None and worst >= best:
                        break
                if best is None or worst < best:
                    best = worst
                if best == 1:
                    break
            if best is None:
                raise ValueError("candidate set admits no splitting query")
            memo[m] = best
            return best

        return value(mask)

    def exact_p1_choice(self, mask: int) -> int:
        target_value = self.minimax_value(mask)
        for w in range(self.nq):
            cells = self._split(mask, w)
            if cells is None:
                continue
            worst = 1 + max(self.minimax_value(c) for c in cells)
            if worst == target_value:
                return w
        raise RuntimeError("no query achieves the computed value")  # pragma: no cover

    def exact_answer(self, mask: int, w: int) -> int:
        best_l: int | None = None
        best_v = -1
        for lab in sorted(self._reference_cells[w]):
            cell = mask & self._reference_cells[w][lab]
            if not cell:
                continue
            v = self.minimax_value(cell)
            if v > best_v:
                best_v = v
                best_l = lab
        if best_l is None:
            raise ValueError("no consistent answer")  # pragma: no cover
        return best_l


def reference_pair_masks(labels: np.ndarray) -> tuple[list[int], int]:
    n_targets = labels.shape[1]
    pairs = list(combinations(range(n_targets), 2))
    full = (1 << len(pairs)) - 1
    masks = []
    for w in range(labels.shape[0]):
        row = labels[w]
        m = 0
        for k, (x, y) in enumerate(pairs):
            if row[x] != row[y]:
                m |= 1 << k
        masks.append(m)
    return masks, full


def reference_min_separating_subset(
    masks: list[int], full: int, cap: int
) -> tuple[int, tuple[int, ...]] | None:
    union = 0
    useful = [w for w, m in enumerate(masks) if m]
    for m in masks:
        union |= m
    if union != full:
        return None
    for k in range(1, cap + 1):
        for combo in combinations(useful, k):
            acc = 0
            for w in combo:
                acc |= masks[w]
            if acc == full:
                return k, combo
    return None


def index_order_min_separating_subset(
    masks: list[int], full: int, cap: int
) -> tuple[int, tuple[int, ...]] | None:
    """Cardinalities 1..cap in turn; within one, a depth-first search picks
    queries in index order and drops a prefix when the union of every later
    mask cannot complete it, so the first hit is the lexicographically
    first witness."""
    useful = [w for w, m in enumerate(masks) if m]
    picked = [masks[w] for w in useful]
    later = [0] * (len(picked) + 1)
    for i in range(len(picked) - 1, -1, -1):
        later[i] = later[i + 1] | picked[i]
    if later[0] != full:
        return None
    chosen: list[int] = []

    def extend(start: int, acc: int, left: int) -> bool:
        for i in range(start, len(picked) - left + 1):
            if acc | later[i] != full:
                return False
            covered = acc | picked[i]
            if left == 1:
                if covered == full:
                    chosen.append(useful[i])
                    return True
            elif extend(i + 1, covered, left - 1):
                chosen.append(useful[i])
                return True
        return False

    for k in range(1, min(cap, len(picked)) + 1):
        if extend(0, 0, k):
            return k, tuple(reversed(chosen))
    return None


def _gnp_corpus():
    """Two connected samples per (n, p); near-complete games stop at n = 20,
    because at n = 24 the reference minimax takes several seconds each."""
    for p in (0.1, 0.3, 0.5, 0.8, 0.95):
        for n in (8, 12, 16, 20, 24):
            if p == 0.95 and n > 20:
                continue
            found = 0
            for seed in range(1000):
                g = sample_gnp(n, p, 1000 * n + seed)
                if is_connected(g):
                    yield pytest.param(distance_matrix(g).d, id=f"gnp-{n}-{p}-{seed}")
                    found += 1
                    if found == 2:
                        break


def _family_corpus():
    for make in (path_graph, cycle_graph, star_graph, complete_graph):
        for n in (3, 5, 8, 12):
            yield pytest.param(distance_matrix(make(n)).d, id=f"{make.__name__}-{n}")


def _distinct_matrices(m: int, n: int, count: int):
    out, seed = [], 0
    while len(out) < count:
        a = sample_bernoulli(m, n, 0.5, seed)
        if columns_pairwise_distinct(a):
            out.append(pytest.param(a.bits, id=f"bernoulli-{m}x{n}-{seed}"))
        seed += 1
    return out


CRITERION_1 = [distance_matrix(g).d for _, g in criterion_1_graphs()]
GNP = list(_gnp_corpus())
FAMILIES = list(_family_corpus())
# The Bernoulli(0.3) matrix (SQC 7) is the one instance here whose search
# bounds a failed cell by the memo of the later cells of its query.
MATRICES = (
    _distinct_matrices(12, 8, 20)
    + _distinct_matrices(14, 64, 3)
    + [pytest.param(sample_bernoulli(10, 40, 0.3, 14000647).bits, id="bernoulli-10x40-0.3-14000647")]
)
TABLES = GNP + FAMILIES + MATRICES
# The reference scan over combinations takes seconds on the near-complete
# G(20, 0.95) samples (metric dimension above 10), so subsets skip them.
SUBSET_TABLES = [p for p in TABLES if not p.id.startswith("gnp-20-0.95")]


def _pair_table(masks: list[int], full: int) -> np.ndarray:
    """The boolean (queries x pairs) table of pair masks: entry (w, j) is
    bit j of ``masks[w]``, for the ``full.bit_length()`` pairs."""
    n_pairs = full.bit_length()
    n_bytes = (n_pairs + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(n_bytes, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), n_bytes), axis=1, count=n_pairs, bitorder="little")
    return bits.astype(bool)


def _search(masks: list[int], full: int, cap: int):
    """``_min_separating_subset`` on pair masks, hand-made or from
    ``reference_pair_masks``."""
    return _min_separating_subset(_pair_table(masks, full), cap)


def _subset_outcome(search, labels: np.ndarray, pair_masks):
    masks, full = pair_masks(labels)
    return search(masks, full, labels.shape[0])


def test_criterion_1_corpus_values_and_witnesses():
    assert len(CRITERION_1) == 527
    for labels in CRITERION_1:
        assert _LabelGameEngine(labels).game_value() == ReferenceEngine(labels).minimax_value()
        expected = _subset_outcome(reference_min_separating_subset, labels, reference_pair_masks)
        assert _subset_outcome(_search, labels, reference_pair_masks) == expected


def test_criterion_9_corpus_values_and_witnesses():
    matrices = [p.values[0] for p in _distinct_matrices(12, 8, 200)]
    for bits in matrices:
        assert _LabelGameEngine(bits.T).game_value() == ReferenceEngine(bits.T).minimax_value()
        expected = _subset_outcome(reference_min_separating_subset, bits, reference_pair_masks)
        assert _subset_outcome(_search, bits, reference_pair_masks) == expected


def test_corpus_has_deep_games_and_witnesses_that_need_the_last_query():
    deep = [p for p in GNP if "-0.95-" in p.id]
    assert deep and all(p.values[0].shape[1] == 20 for p in deep[-2:])
    last = 0
    for labels in CRITERION_1:
        masks, full = reference_pair_masks(labels)
        found = reference_min_separating_subset(masks, full, labels.shape[0])
        useful = [w for w, m in enumerate(masks) if m]
        last += found is not None and bool(useful) and found[1][-1] == useful[-1]
    assert last >= 5


@pytest.mark.parametrize("labels", SUBSET_TABLES)
def test_pair_masks_and_subset_search_match_reference(labels):
    masks, full = reference_pair_masks(labels)
    expected = reference_min_separating_subset(masks, full, labels.shape[0])
    assert _smallest_separating_set(labels.T, None, "set") == expected
    assert _search(masks, full, labels.shape[0]) == expected
    assert _search(masks, full, expected[0]) == expected
    if expected[0] > 1:
        assert _search(masks, full, expected[0] - 1) is None


@pytest.mark.parametrize("labels", TABLES)
def test_values_match_reference(labels):
    """Values and decision tests on all targets, then on random candidate
    subsets with the same two engines, so memo entries left by one query
    are reused by the next."""
    new, ref = _LabelGameEngine(labels.T), ReferenceEngine(labels.T)
    nt = labels.shape[1]
    rng = np.random.default_rng(nt * 7919 + labels.shape[0])
    subsets = [rng.choice(nt, size=int(rng.integers(1, nt + 1)), replace=False) for _ in range(6)]
    for picked in [np.arange(nt)] + subsets:
        mask = new.mask_of(picked)
        value = ref.minimax_value(mask)
        assert new.game_value(mask) == value
        assert not new.solve(mask, value - 1)
        assert new.solve(mask, value)


def _transcript(labels, p1, p2):
    t = _play_on_labels(game._LabelGameEngine(labels.T), p1, p2, None)
    return [(s.query, s.answer, s.candidates) for s in t.steps], t.resolved


@pytest.mark.parametrize("labels", GNP[::4] + FAMILIES[::2] + MATRICES[::4])
def test_exact_minimax_transcripts_match_reference(labels, monkeypatch):
    nt = labels.shape[1]
    pairings = [
        (Player1Policy.exact_minimax(), AdversaryPolicy.exact_minimax()),
        (Player1Policy.exact_minimax(), AdversaryPolicy.greedy_max_cell()),
        (Player1Policy.exact_minimax(), AdversaryPolicy.fixed_target(nt - 1)),
        (Player1Policy.max_gain(), AdversaryPolicy.exact_minimax()),
        (Player1Policy.fixed_sequence(range(labels.shape[0])), AdversaryPolicy.exact_minimax()),
    ]
    new = [_transcript(labels, p1, p2) for p1, p2 in pairings]
    monkeypatch.setattr(game, "_LabelGameEngine", ReferenceEngine)
    assert new == [_transcript(labels, p1, p2) for p1, p2 in pairings]


@pytest.mark.parametrize(
    "labels",
    [np.array([[0, 0, 1], [1, 1, 0]]), np.array([[0, 1, 1, 2], [2, 0, 0, 1], [1, 2, 2, 0]])],
    ids=["twin-targets", "twin-targets-width-3"],
)
def test_non_separable_table_raises_like_reference(labels):
    with pytest.raises(ValueError, match="admits no splitting query") as expected:
        ReferenceEngine(labels.T).minimax_value()
    with pytest.raises(ValueError, match="admits no splitting query") as got:
        _LabelGameEngine(labels.T).game_value()
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="admits no splitting query"):
        _LabelGameEngine(labels.T).exact_p1_choice((1 << labels.shape[1]) - 1)


def test_no_splitting_query_raises_value_error():
    """A table where every query makes one cell has no splitting query;
    the counting bound over one cell per query must not index past its
    table."""
    engine = _LabelGameEngine(np.zeros((2, 3), dtype=np.int64).T)
    with pytest.raises(ValueError, match="admits no splitting query"):
        engine.exact_value()
    assert not engine.solve(engine.full_mask, 3)


def test_counting_bound_is_exact_at_its_edge():
    """Every query of a 20x40 Bernoulli matrix makes 2 cells: 2**5 < 40
    fails before any expansion, 2**6 >= 40 has to search (and passes: the
    value is 6)."""
    engine = _LabelGameEngine(_distinct_bits(20, 40, 0.3, 0).T)
    assert not engine.diagonal
    assert not engine.solve(engine.full_mask, 5)
    assert engine.expanded == 0
    assert engine.solve(engine.full_mask, 6)
    assert engine.expanded > 0


def test_diagonal_counting_bound_is_exact_at_its_edge():
    """On K_40 every query makes 2 cells, its own node and the rest, so e
    queries tell apart at most e + 1 candidates: 38 queries fail before
    any expansion, and 39, the value, has to search and passes."""
    engine = _LabelGameEngine(distance_matrix(complete_graph(40)).d)
    assert engine.diagonal
    assert engine._search_tables()[1][:4] == [1, 2, 3, 4]
    assert not engine.solve(engine.full_mask, 38)
    assert engine.expanded == 0
    assert engine.solve(engine.full_mask, 39)
    assert engine.expanded > 0


def test_diagonal_counting_bound_alone_settles_the_value():
    """G(40, 0.5) has diameter 2, so a query makes at most 3 cells, one of
    them its own node: 4 queries tell apart at most 1 + 2 * 7 = 15 < 40
    candidates, and the MAX-GAIN worst case, 5, is the value with no mask
    expanded (k**e = 81 >= 40 made the search expand 41 masks)."""
    engine = _LabelGameEngine(_connected_table(40, 0.5, 0))
    assert engine._search_tables()[1][:5] == [1, 3, 7, 15, 31]
    assert engine.maxgain_worst_value() == 5
    assert engine.exact_value() == 5
    assert engine.expanded == 0


def test_cap_bounds_the_search_work(monkeypatch):
    engines = []

    class Spy(_LabelGameEngine):
        def __init__(self, table, **kwargs):
            super().__init__(table, **kwargs)
            engines.append(self)

    monkeypatch.setattr(game, "_LabelGameEngine", Spy)
    with pytest.raises(CapExceededError, match="exceeds cap 3"):
        smd_exact(complete_graph(40), cap=3)
    assert engines[0].expanded == 0
    assert not engines[0]._worst_memo


def test_caps_agree_with_values():
    """A cap at the value passes and a cap one below raises, on graphs and
    matrices (values checked against the reference above); md and qc keep
    the reference witness."""
    for labels in [p.values[0] for p in GNP[::3]]:
        n = labels.shape[0]
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i, j] == 1])
        value = _LabelGameEngine(labels).game_value()
        assert smd_exact(g, cap=value) == value
        with pytest.raises(CapExceededError, match=f"exceeds cap {value - 1}"):
            smd_exact(g, cap=value - 1)
        size, witness = md_exact(g)
        assert (size, witness.nodes) == _subset_outcome(
            reference_min_separating_subset, labels, reference_pair_masks
        )
    for param in MATRICES[::5]:
        bits = param.values[0]
        a = BinaryMatrix(bits.shape[0], bits.shape[1], bits)
        value = _LabelGameEngine(bits.T).game_value()
        assert sqc_exact(a, cap=value) == value
        with pytest.raises(CapExceededError, match=f"exceeds cap {value - 1}"):
            sqc_exact(a, cap=value - 1)
        assert qc_exact(a) == _subset_outcome(reference_min_separating_subset, bits, reference_pair_masks)


def _cap_rule_cases():
    """Each exact solver on a one-target instance (value 0) and on one of
    value 2: C_6 for the graph solvers, a 3x4 matrix for the matrix ones.
    The caps are -1, 0, the value - 1, the value and the targets + 1, a
    numpy integer, and caps that are not integers (a float, even 2.0, a
    bool or a string); a string expected is a ValueError's message."""
    four_columns = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]], dtype=np.uint8)
    families = [
        ((md_exact, smd_exact, smd_maxgain_worstcase), Graph(1, []), cycle_graph(6), 6),
        (
            (qc_exact, sqc_exact, sqc_maxgain_worstcase),
            BinaryMatrix(3, 1, np.array([[0], [1], [1]], dtype=np.uint8)),
            BinaryMatrix(3, 4, four_columns),
            4,
        ),
    ]
    for solvers, one_target, value_two, targets in families:
        one_target_caps = [(-1, "cap must be >= 0, got -1"), (0, 0), (2, 0)]
        value_two_caps = [
            (-1, "cap must be >= 0, got -1"), (0, CapExceededError), (1, CapExceededError), (2, 2),
            (targets + 1, 2), (np.int64(2), 2),
        ] + [(cap, f"cap must be an integer, got {cap!r}") for cap in (2.0, 2.5, True, False, "2", np.float64(2.0))]
        for solver in solvers:
            name = solver.__name__
            for cap, expected in one_target_caps:
                yield pytest.param(solver, one_target, cap, expected, id=f"{name}-one-target-cap{cap!r}")
            for cap, expected in value_two_caps:
                yield pytest.param(solver, value_two, cap, expected, id=f"{name}-value-2-cap{cap!r}")


@pytest.mark.parametrize("solver, instance, cap, expected", list(_cap_rule_cases()))
def test_cap_rule(solver, instance, cap, expected):
    """One cap rule for all six exact solvers: a negative cap or one that
    is not an integer is a ValueError naming it, an answer above the cap a
    CapExceededError, and any cap at or above the answer returns it."""
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            solver(instance, cap=cap)
    elif isinstance(expected, type):
        with pytest.raises(expected):
            solver(instance, cap=cap)
    else:
        result = solver(instance, cap=cap)
        assert (result[0] if isinstance(result, tuple) else result) == expected


def _first_connected(n: int, p: float, seed: int) -> np.ndarray:
    for attempt in range(1000):
        g = sample_gnp(n, p, 1000 * n + seed + 100 * attempt)
        if is_connected(g):
            return distance_matrix(g).d
    raise AssertionError(f"no connected G({n}, {p}) sample")  # pragma: no cover


# Graphs too large for the scan over combinations (G(40, 0.3) has metric
# dimension 7), 14x64 matrices, and tables with more than 64 useful
# queries, whose query sets no longer fit one machine word.
LARGE_TABLES = (
    [
        pytest.param(_first_connected(n, p, seed), id=f"gnp-{n}-{p}-{seed}")
        for p in (0.3, 0.2)
        for n in range(24, 41, 4)
        for seed in (0, 1)
    ]
    + _distinct_matrices(14, 64, 4)
    + _distinct_matrices(70, 12, 2)
    + [
        pytest.param(distance_matrix(make(70)).d, id=f"{make.__name__}-70")
        for make in (path_graph, cycle_graph, star_graph)
    ]
)


@pytest.mark.parametrize("labels", LARGE_TABLES)
def test_subset_search_matches_index_order_search(labels):
    """Same size and witness as the index-order search, and the cap
    boundary: a cap at the size finds the witness, one below finds none."""
    masks, full = reference_pair_masks(labels)
    expected = index_order_min_separating_subset(masks, full, labels.shape[0])
    assert _search(masks, full, labels.shape[0]) == expected
    size = expected[0]
    assert _search(masks, full, size) == expected
    assert _search(masks, full, size - 1) is None


def test_large_corpus_has_every_search_shape():
    """The corpus above holds witnesses of size 1 to at least 7, tables with
    more than 64 useful queries, and witnesses that need the last useful
    query."""
    sizes, wide, last = set(), 0, 0
    for param in LARGE_TABLES:
        masks, full = reference_pair_masks(param.values[0])
        useful = [w for w, m in enumerate(masks) if m]
        size, witness = _search(masks, full, len(masks))
        sizes.add(size)
        wide += len(useful) > 64
        last += witness[-1] == useful[-1]
    assert {1, 2, 7} <= sizes and wide >= 4 and last >= 1


@pytest.mark.parametrize(
    "masks, full, cap, expected",
    [
        ([0b001, 0b010, 0b100], 0b111, 3, (3, (0, 1, 2))),
        ([0b011, 0, 0b110, 0, 0b100, 0], 0b111, 2, (2, (0, 2))),
        ([0b011, 0b110, 0b101, 0b001], 0b111, 3, (2, (0, 1))),
        ([0b0110, 0b1100, 0b0011, 0b1001], 0b1111, 4, (2, (0, 3))),
        ([0b011, 0b001, 0b100, 0b110], 0b111, 3, (2, (0, 2))),
        ([0b0011, 0b0101, 0b1000, 0b1110], 0b1111, 4, (2, (0, 3))),
        ([0b00111, 0b11001, 0b00010, 0b00100, 0b01000, 0b10000], 0b11111, 6, (2, (0, 1))),
        ([0b011, 0b001, 0], 0b111, 3, None),
        ([0b011, 0b110], 0b111, 0, None),
        ([0b001, 0b010, 0b100], 0b111, 2, None),
        ([0, 0], 0, 2, None),
    ],
    ids=[
        "every-query-needed",
        "needs-the-last-useful-query",
        "lexicographically-first-of-several",
        "search-finds-a-later-cover-first",
        "witness-skips-a-query",
        "last-query-completes",
        "cover-holds-both-queries-of-the-first-pair",
        "union-falls-short",
        "cap-zero",
        "cap-below-size",
        "no-pairs",
    ],
)
def test_subset_search_small_cases(masks, full, cap, expected):
    """Hand-made masks.  In "search-finds-a-later-cover-first" every pair
    has two separating queries, so the search branches on pair 0 and first
    finds the cover (2, 1); the witness is still (0, 3).  In
    "cover-holds-both-queries-of-the-first-pair" the only cover of size 2
    holds both queries that separate pair 0, so a branch may not drop its
    later siblings."""
    assert index_order_min_separating_subset(masks, full, cap) == expected
    assert _search(masks, full, cap) == expected


def recursive_cover_test(covers: list[int], supports: list[int]):
    """The decision test before its last two levels were merged: a node
    with two queries left made one call per branch query to the one-query
    test, which ANDs the supports of every uncovered pair."""

    def cover(uncovered: int, allowed: int, left: int) -> int | None:
        if not uncovered:
            return 0
        if left == 1:
            while uncovered:
                low = uncovered & -uncovered
                allowed &= supports[low.bit_length() - 1]
                if not allowed:
                    return None
                uncovered ^= low
            return allowed & -allowed
        if not left:
            return None
        low = uncovered & -uncovered
        branch = supports[low.bit_length() - 1] & allowed
        while branch:
            q = branch & -branch
            branch ^= q
            allowed ^= q
            rest = cover(uncovered & ~covers[q.bit_length() - 1], allowed, left - 1)
            if rest is not None:
                return rest | q
        return None

    return cover


def _both_cover_tests(masks: list[int], full: int):
    """The merged decision test and ``recursive_cover_test`` on the same
    hitting-set form of the pair masks."""
    covers, supports = _scarcest_first(_pair_table(masks, full))
    return _cover_test(supports, [full ^ c for c in covers]), recursive_cover_test(covers, supports)


# Hand-made tables for the merged two-query level, each with its size and
# witness.  The comments name what the two-query test meets at the root of
# the search (or, where marked, in the witness read-off).
MERGED_LEVEL_CASES = [
    # Size 2, so the two-query test is the root: the one query left after
    # the branch query separates the rest and passes.
    pytest.param([0b10, 0b01], 0b11, (2, (0, 1)), id="single-candidate-passes"),
    pytest.param([0b0010, 0b1011, 0b1101, 0b0101], 0b1111, (2, (0, 2)), id="single-candidate-passes-4-pairs"),
    # The first branch leaves one candidate that misses a pair of the rest;
    # the second branch reads every pair with several candidates left.
    pytest.param([0b0110, 0b0001, 0b1011, 0b1100], 0b1111, (2, (0, 2)), id="single-candidate-fails"),
    # The first branch's AND goes from two candidates to none at once.
    pytest.param([0b001, 0b010, 0b100, 0b010, 0b101], 0b111, (2, (1, 4)), id="no-candidate-left"),
    pytest.param([0b0111, 0b1010, 0b1001], 0b1111, (2, (0, 1)), id="several-candidates-pass"),
    # Size 3: the root of test 2 fails on a single candidate, and test 3
    # passes one level down.
    pytest.param([0b100, 0b001, 0b010], 0b111, (3, (0, 1, 2)), id="single-candidate-fails-size-3"),
    # Size 3: the read-off's two-query test for a first position of query 0
    # fails, so the witness starts at query 1.
    pytest.param([0b0100, 0b0101, 0b0110, 0b1000], 0b1111, (3, (1, 2, 3)), id="read-off-fails"),
    # Pair 1 is separated by no query: it comes first and every test fails.
    pytest.param([0b01, 0b01], 0b11, None, id="unseparable-pair"),
    pytest.param([0b011, 0b001, 0b011], 0b111, None, id="unseparable-pair-3"),
]


@pytest.mark.parametrize("masks, full, expected", MERGED_LEVEL_CASES)
def test_merged_level_small_cases(masks, full, expected):
    """Each hand-made table gives the reference size and witness with
    every query allowed, with a cap at the size, and none with a cap one
    below it."""
    n = len(masks)
    assert reference_min_separating_subset(masks, full, n) == expected
    assert _search(masks, full, n) == expected
    if expected is not None:
        size = expected[0]
        assert _search(masks, full, size) == expected
        assert _search(masks, full, size - 1) is None
        assert reference_min_separating_subset(masks, full, size - 1) is None


def test_one_query_alone_empties_the_rest():
    """At a node with two queries left, a branch query that separates every
    uncovered pair passes alone.  The size search never meets this (a
    smaller cover would have passed the test before), so the decision test
    is called directly: the scarcest pair is pair 1, separated only by
    query 0, which separates both pairs."""
    masks, full = [0b11, 0b01, 0b10], 0b11
    merged, recursive = _both_cover_tests(masks, full)
    assert merged(full, 0b111, 2) == recursive(full, 0b111, 2) == 0b001
    assert merged(0b01, 0b110, 2) == recursive(0b01, 0b110, 2) == 0b010
    assert _search(masks, full, 3) == reference_min_separating_subset(masks, full, 3) == (1, (0,))


def _random_pair_tables(count: int):
    """Seeded random pair masks: 1-10 queries, 1-40 pairs, each query
    separating each pair with its own table's probability."""
    rng = np.random.default_rng(20_351)
    for _ in range(count):
        n_queries, n_pairs = int(rng.integers(1, 11)), int(rng.integers(1, 41))
        split = rng.random((n_queries, n_pairs)) < rng.uniform(0.1, 0.9)
        yield [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in split], (1 << n_pairs) - 1


def test_merged_level_matches_recursive_test_on_random_tables():
    """The merged decision test returns the same cover mask (or None) as
    the recursive one for random uncovered pairs, allowed queries and 0-3
    queries left; and the search gives the reference size and witness,
    with caps at the size and one below."""
    rng = np.random.default_rng(7)
    sizes = set()
    for masks, full in _random_pair_tables(300):
        n = len(masks)
        merged, recursive = _both_cover_tests(masks, full)
        for _ in range(10):
            uncovered = int(rng.integers(0, full + 1))
            allowed = int(rng.integers(0, 1 << n))
            for left in range(4):
                assert merged(uncovered, allowed, left) == recursive(uncovered, allowed, left)
        expected = reference_min_separating_subset(masks, full, n)
        assert _search(masks, full, n) == expected
        if expected is not None:
            sizes.add(expected[0])
            assert _search(masks, full, expected[0]) == expected
            assert _search(masks, full, expected[0] - 1) is None
    assert {1, 2, 3, 4} <= sizes


def wheel_graph(spokes: int) -> Graph:
    """W_spokes: node 0 joined to every node of the cycle 1..spokes."""
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return Graph(spokes + 1, [(0, i) for i in range(1, spokes + 1)] + rim)


@pytest.mark.parametrize("spokes", range(10, 21))
def test_wheels_match_index_order_search(spokes):
    """Wheels have smallest resolving sets of 4 to 8 rim nodes that the
    read-off must tell apart from sets holding the hub."""
    labels = distance_matrix(wheel_graph(spokes)).d
    masks, full = reference_pair_masks(labels)
    expected = index_order_min_separating_subset(masks, full, labels.shape[0])
    assert _search(masks, full, labels.shape[0]) == expected
    size, witness = md_exact(wheel_graph(spokes))
    assert (size, witness.nodes) == expected


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("n_rows", [0, 1, 5])
def test_bitsets_match_loop(width, n_rows):
    """Row i packs to the int with bit j set where column j is, at word
    edges and beyond, for C-ordered rows and for Fortran-ordered ones (a
    transpose, as the supports of ``_scarcest_first`` are)."""
    rng = np.random.default_rng(1000 * width + n_rows)
    rows = rng.random((n_rows, width)) < 0.5
    if n_rows:
        rows[0] = True  # sets the top bit of each word
    for table in (rows, rows.T.copy().T):
        expected = [sum(1 << j for j in range(width) if row[j]) for row in table]
        assert _bitsets(table) == expected


def test_bitset_limit_and_wide_masks():
    """The exact game refuses more than 64 targets with its own message,
    while a candidate mask has no width limit."""
    engine = _LabelGameEngine(distance_matrix(path_graph(65)).d)
    with pytest.raises(ValueError, match="handles at most 64 targets, got 65"):
        engine.exact_value()
    assert engine.mask_of(np.array([0, 64])) == 1 | 1 << 64


def _connected_table(n: int, p: float, seed: int) -> np.ndarray:
    g = sample_gnp(n, p, seed)
    assert is_connected(g)
    return distance_matrix(g).d


def _distinct_bits(m: int, n: int, q: float, seed: int) -> np.ndarray:
    a = sample_bernoulli(m, n, q, seed)
    assert columns_pairwise_distinct(a)
    return a.bits


@pytest.mark.parametrize(
    "make, args, value, expanded",
    [
        (_connected_table, (24, 0.3, 2), 4, 15),
        (_connected_table, (30, 0.5, 4), 4, 34),
        (_connected_table, (32, 0.3, 3), 4, 34),
        (_connected_table, (40, 0.2, 5), 4, 79),
        (_distinct_bits, (14, 64, 0.5, 2), 6, 66),
        (_distinct_bits, (16, 32, 0.5, 0), 5, 38),
        (_distinct_bits, (20, 40, 0.3, 0), 6, 40),
    ],
)
def test_expanded_counts_are_pinned(make, args, value, expanded):
    """Game value and the number of masks the decision search expanded, as
    recorded before the cell masks were packed by numpy.  The packing bound
    reads each query's first largest cell, so a change in cell order would
    show in the count even where the value stays.  The graph rows were
    re-recorded once, when the counting bound learnt that a graph query's
    label-0 cell is one target (23, 34, 36 and 98 masks under k**e); the
    matrix rows keep k**e and their counts."""
    engine = _LabelGameEngine(make(*args).T)
    assert engine.exact_value() == value
    assert engine.expanded == expanded


def _plane_tables():
    """Tables whose label planes are wide or many: a hand-built table with
    labels far above n, one whose 64 x 64 labels are all distinct, paths and
    cycles (width near n) and a 200-query Bernoulli matrix."""
    rng = np.random.default_rng(5)
    yield pytest.param((rng.random((10, 12)) < 0.5).astype(np.int64) << 40, id="labels-0-and-2**40")
    yield pytest.param(rng.permutation(64 * 64).reshape(64, 64), id="distinct-64x64")
    for make in (path_graph, cycle_graph):
        for n in (3, 17, 63, 64):
            yield pytest.param(distance_matrix(make(n)).d, id=f"{make.__name__}-{n}")
    yield pytest.param(_distinct_bits(200, 64, 0.5, 0), id="bernoulli-200x64-0")


@pytest.mark.parametrize("labels", list(_plane_tables()))
def test_plane_cells_match_reference(labels):
    """The label-plane cell masks are the reference loop's, in order, and
    the worst walk and the game value are the reference engines', on all
    targets and on random candidate sets.  The reference minimax takes
    seconds past 10 candidates under 200 queries, so there the value of
    all 64 targets is checked by its bound instead: 2**5 < 64."""
    nt, nq = labels.shape[1], labels.shape[0]
    engine, ref = _LabelGameEngine(labels.T), ReferenceEngine(labels.T)
    cells = reference_cells(labels)
    assert engine._search_tables()[0] == [tuple(c.values()) for c in cells]
    rng = np.random.default_rng(nt)
    largest = nt if nq <= 64 else 10
    subsets = [rng.choice(nt, size=int(rng.integers(1, largest + 1)), replace=False) for _ in range(4)]
    for picked in [np.arange(nt)] + subsets:
        mask = engine.mask_of(picked)
        worst = reference_worst_value(cells, mask)
        assert engine.maxgain_worst_value(mask) == worst
        value = ref.minimax_value(mask) if picked.size <= largest else worst
        assert engine.game_value(mask) == value
    if nq > 64:
        assert engine.exact_value() == 6
        assert engine.expanded == 0
