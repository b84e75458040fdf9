"""The block scoring kernel against the per-query loops it replaced.

``reference_greedy_refinement`` and ``reference_best_reducer`` are the
loops that scored one query at a time before greedy and MAX-GAIN scoring
moved to one numpy pass per block of queries.  The kernel must choose the
same queries, play the same MAX-GAIN transcripts and raise the same errors,
tie rules included, whatever the block size, and whether the greedy scores
its late rounds over the unresolved pairs from round 1, never, or from the
default switch on.

``reference_reducer_score``, ``reference_max_gain_query`` and
``reference_f_separator_exists`` are the stepwise functions as they were
before they became wrappers over the distance matrix's engine (one
``np.unique`` per query), and ``reference_worst_value`` (in ``conftest``)
is the MAX-GAIN worst walk over the bitset scan that preceded the engine's
own.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import criterion_1_graphs, cycle_graph, path_graph, reference_cells, reference_worst_value, star_graph

from seqlocate import (
    AdversaryPolicy,
    BinaryMatrix,
    DistanceMatrix,
    GameState,
    Graph,
    Player1Policy,
    QuerySet,
    UndefinedQueryComplexityError,
    distance_matrix,
    f_separator_exists,
    game,
    is_connected,
    localization,
    max_gain_query,
    qc_greedy,
    reducer_score,
    sample_bernoulli,
    sample_gnp,
    sqc_play,
)
from seqlocate.game import _LabelGameEngine, _play_on_labels
from seqlocate.localization import _greedy_refinement, _label_table


def greedy_refinement(labels: np.ndarray) -> list[int]:
    """The package's greedy over a label table given as (queries, targets)."""
    return _greedy_refinement(_LabelGameEngine(labels.T))


def reference_greedy_refinement(labels: np.ndarray) -> list[int]:
    """Per-query greedy: fewest unresolved pairs, then smallest worst class,
    then lowest index."""
    n_queries, n_targets = labels.shape
    active = np.arange(n_targets)
    class_of = np.zeros(n_targets, dtype=np.int64)
    chosen: list[int] = []
    chosen_set: set[int] = set()
    width = int(labels.max()) + 1 if labels.size else 1
    while active.size:
        best = None
        for w in range(n_queries):
            if w in chosen_set:
                continue
            keys = class_of[active] * width + labels[w, active]
            counts = np.bincount(keys)
            counts = counts[counts > 1]
            if counts.size:
                unresolved = int((counts * (counts - 1) // 2).sum())
                worst = int(counts.max())
            else:
                unresolved = 0
                worst = 1
            score = (unresolved, worst, w)
            if best is None or score < best:
                best = score
        if best is None:
            raise ValueError("targets are not separable by the given queries")
        unresolved, _, w = best
        _, class_counts = np.unique(class_of[active], return_counts=True)
        if unresolved >= int((class_counts * (class_counts - 1) // 2).sum()):
            raise ValueError("targets are not separable by the given queries")
        chosen.append(w)
        chosen_set.add(w)
        keys = class_of[active] * width + labels[w, active]
        _, new_ids, counts = np.unique(keys, return_inverse=True, return_counts=True)
        class_of[active] = new_ids
        active = active[counts[new_ids] > 1]
    return chosen


def reference_best_reducer(labels: np.ndarray, t: np.ndarray, pool) -> tuple[int, int]:
    """Per-query MAX-GAIN: smallest largest cell, then lowest index."""
    best_w = -1
    best_s = t.size + 1
    for w in pool:
        s = int(np.bincount(labels[w, t]).max())
        if s < best_s:
            best_s = s
            best_w = int(w)
    if best_w < 0:
        raise ValueError("empty query pool")
    return best_w, best_s


def reference_maxgain_play(labels: np.ndarray, target: int | None) -> tuple[list[tuple[int, int, int]], bool]:
    """MAX-GAIN against a fixed target, or the greedy-max-cell adversary when
    ``target`` is None; returns the (query, answer, |T|) steps and resolution."""
    nq, nt = labels.shape
    t = np.arange(nt)
    queried: set[int] = set()
    steps = []
    while t.size > 1 and len(steps) < nt:
        w, _ = reference_best_reducer(labels, t, [w for w in range(nq) if w not in queried])
        if target is None:
            answer = int(np.argmax(np.bincount(labels[w, t])))
        else:
            answer = int(labels[w, target])
        t = t[labels[w, t] == answer]
        queried.add(w)
        steps.append((w, answer, int(t.size)))
    return steps, t.size == 1


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def played(labels: np.ndarray, target: int | None) -> tuple[list[tuple[int, int, int]], bool]:
    adversary = AdversaryPolicy.greedy_max_cell() if target is None else AdversaryPolicy.fixed_target(target)
    transcript = _play_on_labels(_LabelGameEngine(labels.T), Player1Policy.max_gain(), adversary, None)
    return [(s.query, s.answer, s.candidates) for s in transcript.steps], transcript.resolved


def gnp_tables():
    """Up to three connected samples per (n, p) from the first 100 seeds."""
    out = []
    for p in (0.05, 0.1, 0.3, 0.8):
        for n in (8, 20, 45, 80, 120):
            found = 0
            for seed in range(100):
                g = sample_gnp(n, p, 1000 * n + seed)
                if is_connected(g):
                    out.append(pytest.param(distance_matrix(g).d, id=f"gnp-{n}-{p}-{seed}"))
                    found += 1
                    if found == 3:
                        break
    return out


GNP = gnp_tables()
PATHS_CYCLES = [
    pytest.param(distance_matrix(make(n)).d, id=f"{make.__name__}-{n}")
    for make in (path_graph, cycle_graph)
    for n in (3, 5, 16, 33, 64, 101)
]
MATRICES = [
    pytest.param(sample_bernoulli(14, 64, q, seed).bits, id=f"bernoulli-14x64-{q}-{seed}")
    for q in (0.2, 0.5, 0.8)
    for seed in range(6)
]
NON_SEPARABLE = [
    pytest.param(np.array([[0, 0, 1], [1, 1, 0]]), id="twin-targets"),
    pytest.param(np.array([[0, 1, 1, 2], [2, 0, 0, 1], [1, 2, 2, 0]]), id="twin-targets-width-3"),
    pytest.param(np.zeros((0, 3), dtype=np.int64), id="no-queries"),
    pytest.param(np.zeros((2, 1), dtype=np.int64), id="one-target"),  # no query lowers its zero unresolved pairs
]


def hypercube_graph(d: int) -> Graph:
    return Graph(1 << d, [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if v < v ^ (1 << b)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int) -> Graph:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, right + down)


# Symmetric graphs, where many queries tie on unresolved pairs and on the
# worst cell in every round.
TIES = [
    pytest.param(distance_matrix(g).d, id=name)
    for name, g in [
        *((f"hypercube-{d}", hypercube_graph(d)) for d in (3, 4, 5)),
        ("bipartite-3-3", complete_bipartite_graph(3, 3)),
        ("bipartite-6-6", complete_bipartite_graph(6, 6)),
        ("cycle-12", cycle_graph(12)),
        ("cycle-40", cycle_graph(40)),
        ("grid-5-7", grid_graph(5, 7)),
        ("grid-8-8", grid_graph(8, 8)),
    ]
]


def with_twin(labels: np.ndarray) -> np.ndarray:
    """The table with a copy of target 0 appended, so no query set separates them."""
    return np.concatenate((labels, labels[:, :1]), axis=1)


GNP_BY_ID = {p.id: p.values[0] for p in GNP}
NON_SEPARABLE.append(pytest.param(with_twin(GNP_BY_ID["gnp-80-0.3-0"]), id="gnp-80-0.3-0-with-twin"))
TABLES = GNP + PATHS_CYCLES + MATRICES + NON_SEPARABLE + TIES

# Default budget, one query per block, and a budget that splits queries
# into uneven blocks, so ties across block boundaries are exercised.
BUDGETS = [None, 1, 257]


@pytest.fixture(params=BUDGETS, ids=lambda b: f"budget-{b or 'default'}")
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(localization, "_BLOCK_ELEMENTS", request.param)


# Switch factors: pair scoring from round 1, never, and the default.
PAIRS_FROM_ROUND_1 = 1 << 62
PAIRS_NEVER = -1
PHASES = {"pairs-first": PAIRS_FROM_ROUND_1, "pairs-never": PAIRS_NEVER, "pairs-default": None}


@pytest.fixture(params=list(PHASES.values()), ids=list(PHASES))
def phase(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(localization, "_PAIR_PHASE_FACTOR", request.param)


def pair_phase_spy(monkeypatch) -> list[str]:
    """Record each call of the pair phase: "ok" or the error it raised."""
    calls: list[str] = []
    real = localization._pair_refinement

    def spy(*args):
        try:
            result = real(*args)
        except ValueError as exc:
            calls.append(str(exc))
            raise
        calls.append("ok")
        return result

    monkeypatch.setattr(localization, "_pair_refinement", spy)
    return calls


def test_corpus_covers_every_density():
    ids = [p.id for p in GNP]
    for p in (0.05, 0.1, 0.3, 0.8):
        assert sum(f"-{p}-" in i for i in ids) >= 6


def test_corpus_has_both_matrix_outcomes():
    results = [outcome(reference_greedy_refinement, p.values[0])[0] for p in MATRICES]
    assert "ok" in results and "error" in results


# The engine holds no table without queries: the greedy's caller sees the
# engine's error where the reference finds the targets not separable.
EMPTY_TABLE = ("error", "label table must be 2-d and nonempty")


@pytest.mark.parametrize("labels", TABLES)
def test_greedy_refinement_matches_reference(labels, budget, phase):
    expected = outcome(reference_greedy_refinement, labels) if labels.size else EMPTY_TABLE
    assert outcome(greedy_refinement, labels) == expected


@pytest.mark.parametrize("labels", NON_SEPARABLE)
def test_non_separable_table_raises(labels):
    with pytest.raises(ValueError, match="not separable" if labels.size else EMPTY_TABLE[1]):
        greedy_refinement(labels)


@pytest.mark.parametrize("labels", [p for p in NON_SEPARABLE if p.values[0].size])
@pytest.mark.parametrize("factor", [PAIRS_FROM_ROUND_1, None], ids=["pairs-first", "pairs-default"])
def test_pair_phase_raises_not_separable(labels, factor, monkeypatch):
    if factor is not None:
        monkeypatch.setattr(localization, "_PAIR_PHASE_FACTOR", factor)
    calls = pair_phase_spy(monkeypatch)
    with pytest.raises(ValueError, match="not separable"):
        greedy_refinement(labels)
    assert len(calls) == 1 and "not separable" in calls[0]


@pytest.mark.parametrize("factor, calls", [(None, ["ok"]), (PAIRS_NEVER, [])], ids=["pairs-default", "pairs-never"])
def test_default_switches_to_pairs_once(factor, calls, monkeypatch):
    if factor is not None:
        monkeypatch.setattr(localization, "_PAIR_PHASE_FACTOR", factor)
    seen = pair_phase_spy(monkeypatch)
    labels = GNP_BY_ID["gnp-120-0.3-0"]
    assert greedy_refinement(labels) == reference_greedy_refinement(labels)
    assert seen == calls


def recount(table: np.ndarray, width: int, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cell counts of the classes a pick leaves, counted afresh: one row per
    (class, label), classes being the children with two or more targets,
    in key order."""
    counts = []
    for key in np.unique(keys):
        members = rows[keys == key]
        if members.size > 1:
            counts += [(table[members] == label).sum(axis=0) for label in range(width)]
    return np.array(counts, dtype=np.int64).reshape(-1, table.shape[1])


# Separable binary matrices: width-2 tables, counted by one label plane.
SEPARABLE_MATRICES = [p for p in MATRICES if outcome(reference_greedy_refinement, p.values[0])[0] == "ok"][::2]


@pytest.mark.parametrize(
    "labels",
    TIES
    + SEPARABLE_MATRICES
    + [pytest.param(distance_matrix(sample_gnp(300, 0.05, 0)).d, id="gnp-300-0.05-0")],
)
@pytest.mark.parametrize("block", [1, 257], ids=["budget-1", "budget-257"])
def test_held_counts_equal_a_fresh_recount(labels, block, monkeypatch):
    """After every cell round the held table is the cell counts of the
    current classes, whichever targets the update counted."""
    monkeypatch.setattr(localization, "_BLOCK_ELEMENTS", block)
    monkeypatch.setattr(localization, "_PAIR_PHASE_FACTOR", PAIRS_NEVER)
    rounds = []
    split = localization._split_counts

    def checked(engine, held, rows, keys):
        new = split(engine, held, rows, keys)
        assert new.tolist() == recount(engine.table, engine.width, rows, keys).tolist()
        rounds.append(new.shape[0] // engine.width)
        return new

    monkeypatch.setattr(localization, "_split_counts", checked)
    assert greedy_refinement(labels) == reference_greedy_refinement(labels)
    assert rounds and min(rounds) >= 1


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_split_counts_by_slot_kind(dtype, monkeypatch):
    """One pick on a hand-built table, checked against a fresh recount.

    Before the pick, class 0 is targets 0-7, class 1 targets 8-12 and
    class 2 targets 13-15; target 16 is no longer active.  The pick
    (query 0) splits class 0 into a largest child of four and two own
    children of two, leaves class 1 a largest child of three and two dead
    singletons, which share one slot, and splits class 2 into singletons
    only, so class 2 drops out uncounted.
    """
    width = 3
    pick = [0, 0, 0, 0, 1, 1, 2, 2, 1, 1, 1, 0, 2, 0, 1, 2, 0]
    table = np.random.default_rng(7).integers(0, width, size=(len(pick), 6)).astype(np.uint8)
    table[:, 0] = pick
    rows = np.arange(16)
    classes = np.repeat([0, 1, 2], [8, 5, 3])
    keys = classes * width + table[rows, 0]
    held = recount(table, width, rows, classes * width).astype(dtype)
    engine = _LabelGameEngine(table)
    assert np.array_equal(engine.table, table) and engine.width == width
    counted = []
    real = engine.counts

    def spy(rows):
        counted.append(rows.tolist())
        return real(rows)

    monkeypatch.setattr(engine, "counts", spy)
    new = localization._split_counts(engine, held, rows, keys)
    assert new.dtype == dtype
    assert new.tolist() == recount(table, width, rows, keys).tolist()
    assert new.shape[0] == 4 * width  # class 0's three children and class 1's largest
    assert sorted(counted) == [[4, 5], [6, 7], [11, 12]]


@pytest.mark.parametrize("labels", GNP[::3] + MATRICES[::3] + TIES[::3])
def test_int64_held_counts_pick_the_same(labels, monkeypatch):
    """Tables with too many targets for int32 sums of squares hold int64
    counts; forced on small tables, the picks are the reference's."""
    monkeypatch.setattr(localization, "_INT32_TARGETS", 1)
    monkeypatch.setattr(localization, "_PAIR_PHASE_FACTOR", PAIRS_NEVER)
    dtypes = []
    split = localization._split_counts

    def spy(engine, held, rows, keys):
        dtypes.append(held.dtype)
        return split(engine, held, rows, keys)

    monkeypatch.setattr(localization, "_split_counts", spy)
    assert outcome(greedy_refinement, labels) == outcome(reference_greedy_refinement, labels)
    assert set(dtypes) <= {np.dtype(np.int64)}


def test_pair_counts_match_brute_force_past_one_block():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=(6, 50))
    labels[2] = 1  # leaves every pair equal: more than a uint8 sum can hold
    table, _ = _label_table(labels.T)
    xs, ys = rng.integers(0, 50, size=(2, 3 * localization._PAIR_BLOCK + 7))
    expected = [int((labels[w, xs] == labels[w, ys]).sum()) for w in range(6)]
    assert localization._pair_counts(table, xs, ys).tolist() == expected
    assert expected[2] == xs.size


def test_class_pairs_lists_every_same_class_pair():
    rng = np.random.default_rng(5)
    for _ in range(20):
        size = int(rng.integers(0, 40))
        active = np.sort(rng.choice(100, size=size, replace=False))
        rank = rng.integers(0, max(1, size // 3), size=size)
        xs, ys = localization._class_pairs(active, rank)
        expected = {
            (int(active[i]), int(active[j]))
            for i in range(size)
            for j in range(i + 1, size)
            if rank[i] == rank[j]
        }
        assert len(xs) == len(expected)
        assert {(min(x, y), max(x, y)) for x, y in zip(xs.tolist(), ys.tolist())} == expected


def test_empty_target_set_needs_no_query():
    """The engine rejects a table with no targets, so the greedy never sees
    one; its callers answer a single target with no query."""
    with pytest.raises(ValueError, match=EMPTY_TABLE[1]):
        greedy_refinement(np.zeros((2, 0), dtype=np.int64))
    assert qc_greedy(BinaryMatrix(2, 1, np.array([[0], [1]], dtype=np.uint8))) == ()


@pytest.mark.parametrize("labels", GNP + PATHS_CYCLES + MATRICES)
def test_maxgain_transcript_matches_reference(labels, budget):
    nt = labels.shape[1]
    for target in (None, 0, nt // 2, nt - 1):
        assert outcome(played, labels, target) == outcome(reference_maxgain_play, labels, target)


def test_maxgain_play_both_updates():
    """Across the corpus, MAX-GAIN play recounts the kept cell when it is
    the smaller side and subtracts the removed rest otherwise; fixed
    targets answer small cells, so both updates occur."""
    seen = {"recount": 0, "subtract": 0}
    calls: list[np.ndarray] = []
    count = game._label_counts

    def spy(table, rows, width, *args, **kwargs):
        calls.append(rows.copy())
        return count(table, rows, width, *args, **kwargs)

    for labels in [p.values[0] for p in GNP + PATHS_CYCLES + MATRICES]:
        nt = labels.shape[1]
        for target in (None, 0, nt // 2, nt - 1):
            calls.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(game, "_label_counts", spy)
                kind, value = outcome(played, labels, target)
            assert (kind, value) == outcome(reference_maxgain_play, labels, target)
            if kind != "ok":
                continue
            t = np.arange(nt)
            assert len(calls) == 1 + len(value[0])
            assert calls[0].tolist() == t.tolist()
            for (w, answer, _), rows in zip(value[0], calls[1:]):
                kept = labels[w, t] == answer
                if 2 * kept.sum() <= t.size:
                    assert rows.tolist() == t[kept].tolist()
                    seen["recount"] += 1
                else:
                    assert rows.tolist() == t[~kept].tolist()
                    seen["subtract"] += 1
                t = t[kept]
    assert min(seen.values()) > 0


@pytest.mark.parametrize("labels", MATRICES)
def test_qc_greedy_matches_reference(labels, budget, phase):
    a = BinaryMatrix(*labels.shape, labels)
    kind, expected = outcome(reference_greedy_refinement, labels)
    if kind == "ok":
        assert qc_greedy(a) == tuple(expected)
    else:
        with pytest.raises(UndefinedQueryComplexityError):
            qc_greedy(a)


@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_all_ones_but_the_diagonal_takes_the_rule(n, budget):
    """J - I is the one square 0/1 matrix whose 0s lie exactly on its
    diagonal.  Its engine takes the diagonal rule, and ``qc_greedy`` and a
    MAX-GAIN ``sqc_play`` against greedy-max-cell are the references'.  One
    more 0, or the identity, fails the check."""
    bits = (1 - np.eye(n)).astype(np.uint8)
    assert _LabelGameEngine(bits).diagonal
    a = BinaryMatrix(n, n, bits)
    assert qc_greedy(a) == tuple(reference_greedy_refinement(bits))
    t = sqc_play(a, Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())
    assert ([(s.query, s.answer, s.candidates) for s in t.steps], t.resolved) == reference_maxgain_play(bits, None)
    extra = bits.copy()
    extra[0, n - 1] = 0
    assert not _LabelGameEngine(extra.T).diagonal
    assert not _LabelGameEngine(np.eye(n, dtype=np.uint8)).diagonal


@pytest.mark.parametrize("labels", GNP[::3] + PATHS_CYCLES + MATRICES[::3])
def test_best_reducer_matches_reference_on_subsets(labels, budget):
    nq, nt = labels.shape
    engine = _LabelGameEngine(labels.T)
    rng = np.random.default_rng(nq * 7919 + nt)
    for _ in range(10):
        t = np.sort(rng.choice(nt, size=int(rng.integers(2, nt + 1)), replace=False))
        pool = rng.random(nq) < rng.random()
        expected = outcome(reference_best_reducer, labels, t, np.flatnonzero(pool))
        assert outcome(engine.best_reducer, t, pool) == expected


def test_best_reducer_empty_pool():
    engine = _LabelGameEngine(np.array([[0, 1, 1], [1, 0, 1]]).T)
    with pytest.raises(ValueError, match="empty query pool"):
        engine.best_reducer(np.arange(3), np.zeros(2, dtype=bool))


def test_negative_labels_rejected_like_reference():
    labels = np.array([[0, -1, 1], [1, 0, 0]])
    assert outcome(reference_greedy_refinement, labels)[0] == "error"
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_refinement(labels)
    assert outcome(reference_best_reducer, labels, np.arange(3), [0, 1])[0] == "error"
    with pytest.raises(ValueError, match="nonnegative"):
        _LabelGameEngine(labels.T).best_reducer(np.arange(3), np.ones(2, dtype=bool))


def reference_reducer_score(dm, t: np.ndarray, w: int) -> int:
    t = np.asarray(t)
    if t.size == 0:
        raise ValueError("candidate set is empty")
    if not 0 <= w < dm.n:
        raise IndexError(f"query {w} out of range")
    _, counts = np.unique(dm.d[w, t], return_counts=True)
    return int(counts.max())


def reference_max_gain_query(dm, state: GameState, pool=None) -> int:
    if state.candidates.size < 2:
        raise ValueError("max-gain needs at least two candidates")
    if pool is None:
        queried = set(state.queries)
        pool = [w for w in range(dm.n) if w not in queried]
    else:
        pool = [int(w) for w in pool]
    if not pool:
        raise ValueError("empty query pool")
    best_w = -1
    best_s = state.candidates.size + 1
    for w in pool:
        s = reference_reducer_score(dm, state.candidates, w)
        if s < best_s:
            best_s = s
            best_w = w
    return best_w


def reference_f_separator_exists(dm, w_set, gamma: float, f_value: float) -> tuple[bool, int | None]:
    nodes = np.asarray(list(w_set) if isinstance(w_set, QuerySet) else w_set, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("W must be nonempty")
    if nodes.min() < 0 or nodes.max() >= dm.n:
        raise IndexError("node in W out of range")
    bound = nodes.size * gamma + f_value
    for w in range(dm.n):
        _, counts = np.unique(dm.d[w, nodes], return_counts=True)
        if counts.max() <= bound:
            return True, w
    return False, None


def result(fn, *args, **kwargs):
    """("ok", value), or the type and message of the ValueError or
    IndexError that ``fn`` raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def candidate_sets(n: int, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """All n targets, then random subsets in random order, the last one
    with repeated targets."""
    sets = [np.arange(n)]
    sets += [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(count)]
    sets.append(rng.choice(n, size=n, replace=True))
    return sets


def check_stepwise_scorers(dm: DistanceMatrix, rng: np.random.Generator, count: int) -> None:
    """reducer_score, max_gain_query and f_separator_exists against their
    references on random candidate sets, pools and bounds, errors included."""
    n = dm.n
    for t in candidate_sets(n, rng, count):
        for w in range(-1, n + 1):
            assert result(reducer_score, dm, t, w) == result(reference_reducer_score, dm, t, w)
        queried = rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist()
        state = GameState(queries=queried, observations=[0] * len(queried), candidates=t)
        pools = [None, np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)), [], [0, n]]
        for pool in pools:
            assert result(max_gain_query, dm, state, pool) == result(reference_max_gain_query, dm, state, pool)
        for gamma in (0.25, 0.75):
            for f_value in (0.0, 2.5):
                expected = result(reference_f_separator_exists, dm, t, gamma, f_value)
                assert result(f_separator_exists, dm, t, gamma, f_value) == expected
    empty = np.array([], dtype=np.int64)
    assert result(reducer_score, dm, empty, 0) == result(reference_reducer_score, dm, empty, 0)
    for w_set in (empty, [n], QuerySet(tuple(range(n)))):
        expected = result(reference_f_separator_exists, dm, w_set, 0.5, 0.0)
        assert result(f_separator_exists, dm, w_set, 0.5, 0.0) == expected


def test_stepwise_scorers_match_reference_on_criterion_1_corpus():
    rng = np.random.default_rng(1)
    checked = 0
    for _, g in criterion_1_graphs():
        check_stepwise_scorers(distance_matrix(g), rng, 1)
        checked += 1
    assert checked == 527


@pytest.mark.parametrize("labels", GNP)
def test_stepwise_scorers_match_reference(labels):
    rng = np.random.default_rng(labels.shape[0])
    check_stepwise_scorers(DistanceMatrix(labels.shape[0], labels), rng, 3)


@pytest.mark.parametrize("labels", MATRICES)
def test_engine_scorers_match_reference_on_matrices(labels, budget):
    """No distance matrix holds a 14x64 table, so the engine's scorers are
    compared directly: largest cells per query, and the MAX-GAIN choice
    over a sorted pool."""
    nq, nt = labels.shape
    table = SimpleNamespace(n=nq, d=labels)  # what the references read of a dm
    engine = _LabelGameEngine(labels.T)
    rng = np.random.default_rng(nt)
    for t in candidate_sets(nt, rng, 6):
        expected = [reference_reducer_score(table, t, w) for w in range(nq)]
        assert engine.largest_cells(t).tolist() == expected
        pool = np.sort(rng.choice(nq, size=int(rng.integers(1, nq + 1)), replace=False))
        in_pool = np.zeros(nq, dtype=bool)
        in_pool[pool] = True
        state = GameState(queries=[], observations=[], candidates=t)
        expected = result(reference_max_gain_query, table, state, pool)
        assert result(lambda: engine.best_reducer(t, in_pool)[0]) == expected


def bitset_tables():
    """Every table of the scoring corpora with at most 64 targets."""
    tables = [distance_matrix(g).d for _, g in criterion_1_graphs()]
    tables += [p.values[0] for p in GNP + MATRICES if p.values[0].shape[1] <= 64]
    return tables


def test_search_cells_match_reference_in_order():
    """The engine's packed cell masks are the reference loop's, query by
    query and in the same order (by lowest target)."""
    for labels in bitset_tables():
        expected = [tuple(cells.values()) for cells in reference_cells(labels)]
        assert _LabelGameEngine(labels.T)._search_tables()[0] == expected


def test_worst_walk_matches_reference():
    """The engine's MAX-GAIN worst case equals the old scan's, with
    the same error when no query splits, on all targets and on random
    candidate subsets."""
    errors = 0
    for labels in bitset_tables():
        nt = labels.shape[1]
        engine, cells = _LabelGameEngine(labels.T), reference_cells(labels)
        rng = np.random.default_rng(nt)
        for t in [np.arange(nt)] + [rng.choice(nt, size=int(rng.integers(1, nt + 1)), replace=False) for _ in range(3)]:
            mask = engine.mask_of(t)
            expected = result(reference_worst_value, cells, mask)
            assert result(engine.maxgain_worst_value, mask) == expected
            errors += expected[0] != "ok"
    assert errors > 0  # some 14x64 matrices have equal columns


def test_reducer_score_reads_one_row(monkeypatch):
    """One ``reducer_score`` call on a fresh distance matrix counts nothing
    of the engine's table: no label count and no full counts."""
    dm = distance_matrix(sample_gnp(60, 0.2, 11))
    monkeypatch.setattr(game, "_label_counts", None)  # any count would raise
    assert reducer_score(dm, np.arange(60), 7) == reference_reducer_score(dm, np.arange(60), 7)
    assert dm._engine._full is None


@pytest.mark.parametrize("leaf", [1, 5, 10])
def test_f_separator_stops_at_first_fitting_block(leaf, monkeypatch):
    """With one query per block, the scan scores queries up to the first
    that fits and no further.  On a star, only the two leaves of W split
    W, so the first witness is the lower leaf."""
    monkeypatch.setattr(localization, "_BLOCK_ELEMENTS", 1)
    dm = distance_matrix(star_graph(11))
    scored = []
    largest_cells = _LabelGameEngine.largest_cells

    def spy(self, t, lo=0, hi=None):
        scored.extend(range(lo, self.nq if hi is None else hi))
        return largest_cells(self, t, lo, hi)

    monkeypatch.setattr(_LabelGameEngine, "largest_cells", spy)
    expected = reference_f_separator_exists(dm, [leaf, 11], 0.5, 0.0)
    assert expected == (True, leaf)
    assert f_separator_exists(dm, [leaf, 11], 0.5, 0.0) == expected
    assert scored == list(range(leaf + 1))
