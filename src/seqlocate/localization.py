"""Resolving sets and metric dimension.

A query set R resolves a graph when the vector of hop distances to R is
different for every node, i.e. observing d(R, v) pins down v exactly.  The
metric dimension is the smallest size of a resolving set, the fewest
queries that separate every pair of nodes.  ``md_exact`` finds it as a
minimum hitting set of the node pairs, testing sizes 1, 2, ... and
branching on the pair that the fewest queries separate; ``md_greedy`` is
the scalable stand-in that adds one query at a time to cut the number of
still-confusable node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix, Graph, _node_indices, distance_matrix


class CapExceededError(RuntimeError):
    """A capped search ran out of budget before producing its answer."""


@dataclass(frozen=True)
class QuerySet:
    """An ordered set of query nodes; indices are distinct nonnegative
    integers (``graphs._node_indices``)."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        _node_indices(self.nodes, None, "query nodes", "query nodes must be nonnegative", ValueError)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate query node")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def _query_rows(dm: DistanceMatrix, nodes) -> np.ndarray:
    """``nodes``, any iterable of query nodes of ``dm``, by the node rule."""
    return _node_indices(nodes, dm.n, "query nodes", "query {} out of range")


def observation_vector(dm: DistanceMatrix, r: QuerySet, v: int) -> np.ndarray:
    """Distances from each query in ``r`` to target ``v``, in query order."""
    v = _node_indices(v, dm.n, "target", "target {} out of range", one=True)
    return dm.d[_query_rows(dm, r), v]


def candidate_targets(dm: DistanceMatrix, r: QuerySet, obs) -> np.ndarray:
    """All nodes whose observation vector under ``r`` equals ``obs``.

    An empty query set leaves every node a candidate, and an observation
    that is not an integer matches no node.
    """
    obs_arr = np.asarray(obs)
    if obs_arr.shape != (len(r),):
        got = f"length {obs_arr.size}" if obs_arr.ndim == 1 else f"shape {obs_arr.shape}"
        raise ValueError(f"observation {got} != |R| = {len(r)}")
    mask = (dm.d[_query_rows(dm, r)] == obs_arr[:, None]).all(axis=0)
    return np.nonzero(mask)[0]


def is_resolving(dm: DistanceMatrix, r: QuerySet) -> bool:
    """True iff distinct nodes get distinct observation vectors under ``r``."""
    rows = _query_rows(dm, r)
    if rows.size == 0:
        return dm.n <= 1
    return _equal_pairs(dm.d[rows]) == 0


def _equal_pairs(table: np.ndarray) -> int:
    """Unordered pairs of equal columns in the 2-d ``table`` (at least one
    row): the target pairs that its rows, read as queries, do not separate."""
    ordered = table[:, np.lexsort(table)]  # equal columns end up adjacent
    starts = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return _unresolved_pairs(np.concatenate(([0], np.cumsum(starts))))


def _check_cap(cap: int | None) -> None:
    """The cap rule of every exact solver: None or an int >= 0."""
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")


def _bitsets(rows: np.ndarray) -> list[int]:
    """Row i of the boolean 2-d array ``rows`` as an int with bit j set
    where ``rows[i, j]`` is set, for any row width.

    Rows are padded to whole 64-bit words and packed in one flat
    ``packbits`` call, several times faster than packing along an axis.
    """
    n_rows, width = rows.shape
    n_bytes = 8 * max(1, -(-width // 64))
    padded = np.zeros((n_rows, 8 * n_bytes), np.uint8)
    padded[:, :width] = rows
    packed = np.packbits(padded, bitorder="little")
    if n_bytes == 8:
        return packed.view("<u8").tolist()
    raw = packed.tobytes()
    return [int.from_bytes(raw[i : i + n_bytes], "little") for i in range(0, len(raw), n_bytes)]


def _scarcest_first(split: np.ndarray) -> tuple[list[int], list[int]]:
    """The hitting-set form of the (queries x pairs) boolean table ``split``,
    pairs renumbered scarcest first.

    Returns (covers, supports): ``covers[i]`` has bit j set when query i
    separates pair j, and ``supports[j]`` has bit i set for every query i
    that separates pair j.  Pair 0 is separated by the fewest queries; ties
    keep the column order of ``split``.
    """
    table = split[:, np.argsort(split.sum(axis=0, dtype=np.uint16), kind="stable")]
    return _bitsets(table), _bitsets(table.T)


def _min_separating_subset(split: np.ndarray, cap: int) -> tuple[int, tuple[int, ...]] | None:
    """Smallest subset of queries that separates every target pair.

    ``split[w, j]`` is True when query w separates pair j.  A hitting-set
    search over the target pairs, with the queries that separate anything
    (``useful``, in index order) renumbered 0..Q-1 and the pairs renumbered
    scarcest first (``_scarcest_first``).  The decision test
    ``cover(uncovered, allowed, left)`` looks for at most ``left`` queries
    from ``allowed`` that separate every uncovered pair.  It branches only
    on the queries that separate the first uncovered pair, removing each
    tried one from ``allowed`` for its later siblings, since any cover
    holding it was already tried.  With one query left it ANDs the supports
    of the uncovered pairs and fails as soon as the AND is empty.

    The test runs for cardinalities 1..cap.  At the first that passes, the
    witness is built position by position, each time taking the smallest
    query whose remainder passes with only later queries allowed, so it is
    the lexicographically first in ``useful`` order.  ``known`` is a
    smallest cover that holds the positions chosen so far, from the last
    test that passed; its next position passes, so only the queries before
    that one are tested.  A query that separates no uncovered pair is
    skipped, since it would leave a smaller cover.

    Returns None when some pair is separated by no query (it comes first,
    and every test fails on it at once) or nothing fits within ``cap``;
    raises nothing itself.
    """
    useful = np.flatnonzero(split.any(axis=1)).tolist()
    covers, supports = _scarcest_first(split[useful])
    full = (1 << split.shape[1]) - 1
    everything = (1 << len(useful)) - 1

    def cover(uncovered: int, allowed: int, left: int) -> int | None:
        """At most ``left`` queries from ``allowed`` that separate every
        uncovered pair, as a bitmask of query positions, or None."""
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

    for k in range(1, min(cap, len(useful)) + 1):
        known = cover(full, everything, k)
        if known is None:
            continue
        witness = []
        uncovered, chosen, i = full, 0, -1
        for left in range(k - 1, -1, -1):
            ahead = known & ~chosen
            known_next = (ahead & -ahead).bit_length() - 1
            i += 1
            while i < known_next:
                if uncovered & covers[i]:
                    rest = cover(uncovered & ~covers[i], everything & ~((2 << i) - 1), left)
                    if rest is not None:
                        known = chosen | 1 << i | rest
                        break
                i += 1
            chosen |= 1 << i
            witness.append(useful[i])
            uncovered &= ~covers[i]
        return k, tuple(witness)
    return None


def _smallest_separating_set(
    labels: np.ndarray, cap: int | None, what: str
) -> tuple[int, tuple[int, ...]]:
    """Smallest set of queries (rows of ``labels``) under which every target
    (column) has its own responses, with the lexicographically first witness.

    The front end of ``md_exact`` and ``qc_exact``: ``cap`` follows
    ``_check_cap``, one target needs no query, and the search runs over
    the table of target pairs each query separates.  Raises
    CapExceededError, naming the ``what`` sought, when nothing fits within
    ``cap`` (by default, the number of queries).
    """
    _check_cap(cap)
    if labels.shape[1] == 1:
        return 0, ()
    limit = labels.shape[0] if cap is None else cap
    first, second = np.triu_indices(labels.shape[1], 1)  # pair order of combinations()
    found = _min_separating_subset(labels[:, first] != labels[:, second], limit)
    if found is None:
        raise CapExceededError(f"no {what} of size <= {limit}")
    return found


def md_exact(g: Graph, cap: int | None = None) -> tuple[int, QuerySet]:
    """Exact metric dimension with a lexicographically-first witness.

    A hitting-set search over node pairs (``_min_separating_subset``):
    sizes 1, 2, ... are tested in turn, each by branching only on the
    queries that separate the pair the fewest queries separate, and the
    witness is then read off position by position.  The tests below the
    metric dimension dominate the cost, which still grows steeply with n:
    on a 2-vCPU Xeon VM, G(32, 0.3) takes 5-10 ms and G(40, 0.3) 0.1-0.2 s.
    ``cap`` (None or >= 0) limits the sizes tested; if no resolving set
    exists within it, CapExceededError is raised.
    """
    labels = distance_matrix(g)._engine.labels  # DisconnectedGraphError if disconnected
    size, witness = _smallest_separating_set(labels, cap, "resolving set")
    return size, QuerySet(witness)


# Element budget of one counting block (rows x query columns).  A block
# holds that many labels and one label plane of them, or int64 keys and
# counts of that many entries where np.bincount counts it, so the memory
# of one count stays fixed whatever the table size; the greedy's held
# cell counts are one int32 per cell and query.
_BLOCK_ELEMENTS = 1 << 18


def _label_table(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """The table transposed to (targets, queries) in the smallest unsigned
    dtype that holds every label, and the label width (largest label + 1).

    Rows are targets, so gathering the active targets reads whole rows.
    """
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    width = int(labels.max()) + 1 if labels.size else 1
    return labels.astype(np.min_scalar_type(width - 1)).T.copy(), width


def _column_blocks(n_queries: int, n_rows: int, cells: int):
    """Consecutive (c0, c1) query ranges whose key and count arrays fit the budget."""
    step = max(1, _BLOCK_ELEMENTS // max(1, n_rows, cells))
    for c0 in range(0, n_queries, step):
        yield c0, min(c0 + step, n_queries)


def _cell_counts(block: np.ndarray, width: int) -> np.ndarray:
    """Label counts of a block of the label table, in (labels, queries) layout.

    Row i of ``block`` holds one target's labels under some queries.
    Returns ``counts[l, j]``, the number of rows with label l under column j.
    """
    cols = block.shape[1]
    keys = np.multiply(block, cols, dtype=np.int64)
    keys += np.arange(cols)
    return np.bincount(keys.ravel(), minlength=width * cols).reshape(width, cols)


# A set of targets (the whole table in round 1, one slot of a split
# later) is counted by comparing its block with each label in turn
# ("label planes"), several times faster than the bincount kernel at the
# label widths of G(n, p) tables.  Planes cost one pass per label, so
# tables wider than this go through the bincount kernel, whose cost does
# not grow with the width.
_PLANE_WIDTH = 8


def _label_counts(
    table: np.ndarray, rows: np.ndarray, width: int, c0: int = 0, c1: int | None = None
) -> np.ndarray:
    """How many of the targets ``rows`` give each label to each query
    c0..c1-1 (default: to the end), as an int32 (labels, queries) array.

    The counts of ``rows`` taken as one class, read a budget-sized block
    of queries at a time.  A target listed twice is counted twice.
    """
    c1 = table.shape[1] if c1 is None else c1
    out = np.empty((width, c1 - c0), dtype=np.int32)
    for b0, b1 in _column_blocks(c1 - c0, rows.size, width):
        block = table[rows, c0 + b0 : c0 + b1]
        if width > _PLANE_WIDTH:
            out[:, b0:b1] = _cell_counts(block, width)
            continue
        for label in range(width - 1):
            out[label, b0:b1] = np.add.reduce((block == label).view(np.uint8), axis=0, dtype=np.int32)
        out[-1, b0:b1] = rows.size - out[:-1, b0:b1].sum(axis=0)  # every row has one label
    return out


def _split_counts(
    table: np.ndarray, width: int, held: np.ndarray, rows: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """The held counts of the classes that a pick leaves, from those before it.

    ``held`` holds the counts of every class before the pick in (cells,
    queries) layout: row ``k * width + l`` counts class k's targets with
    label l under each query.  ``rows`` are the active targets before the
    pick and ``keys[i]`` is the child of ``rows[i]``: its class * width +
    its label under the pick.  The children with at least two targets are
    the classes after the pick, in key order; the others are singletons and
    drop out.

    Only the targets outside each class's largest child are counted, one
    slot at a time by label planes (``_label_counts``).  A slot is one
    other child that stays a class, or the dead singletons of a class.  The
    largest child's counts are its parent's minus every slot of its class,
    so the singletons' slot is charged to it and not written.  A class
    whose largest child is a singleton drops out whole, uncounted.
    """
    sizes = np.bincount(keys, minlength=held.shape[0])
    alive = sizes > 1
    new_class = np.cumsum(alive) - 1
    big = sizes.reshape(-1, width).argmax(axis=1) + np.arange(0, sizes.size, width)
    big_of = big[keys // width]
    counted = (keys != big_of) & alive[big_of]
    slot_of = np.where(alive[keys], keys, big_of)[counted]  # dead targets share their largest child's slot
    order = np.argsort(slot_of, kind="stable")
    starts = np.flatnonzero(np.diff(slot_of[order], prepend=-1))
    slots = slot_of[order[starts]]
    n_queries = table.shape[1]
    new = np.empty((int(alive.sum()), width, n_queries), dtype=held.dtype)
    kept_big = big[alive[big]]
    new[new_class[kept_big]] = held.reshape(-1, width, n_queries)[kept_big // width]
    own_rows, big_rows = new_class[slots].tolist(), new_class[big[slots // width]].tolist()
    for members, own_row, big_row in zip(np.split(rows[counted][order], starts[1:]), own_rows, big_rows):
        counts = _label_counts(table, members, width)
        if own_row != big_row:  # not the dead slot
            new[own_row] = counts
        new[big_row] -= counts
    return new.reshape(-1, n_queries)


# The greedy switches from cell scoring to pair scoring once the unresolved
# pairs number at most this many times the active targets.
_PAIR_PHASE_FACTOR = 12

# Pairs compared per step of the pair kernel: a uint8 sum of this many
# equalities cannot overflow.
_PAIR_BLOCK = 255

# Below this many targets, a query's sum of squared cell sizes fits int32.
_INT32_TARGETS = 46341


def _greedy_refinement(table: np.ndarray, width: int) -> list[int]:
    """Greedy query selection by partition refinement.

    ``table`` and ``width`` are a response table in ``_label_table`` form
    (rows are targets).  Maintains the partition of targets into classes
    with equal responses to the chosen queries.  Each round picks the query
    minimizing the number of still-unseparated pairs, breaking ties by
    smaller worst-class size and then by lower query index.  Targets in
    singleton classes drop out.  A chosen query is constant on every class,
    so it separates nothing and is never chosen again: the round raises first.

    The early rounds score every query over the cells of the active
    targets, from one table of cell counts held across them in (cells,
    queries) layout.  Round 1 counts the single class by label planes
    (``_label_counts``).  Each later round first updates the table for the
    last pick, counting only the targets outside each class's largest
    child, one child at a time by the same planes (``_split_counts``).  A
    query's unresolved pairs are (sum of its squared cell sizes -
    |active|) / 2, and its worst cell is read only when it ties on the
    fewest.  Once the unresolved pairs number at most
    ``_PAIR_PHASE_FACTOR`` times the active targets, the rest of the call
    scores queries over the list of those pairs instead
    (``_pair_refinement``), which picks the same queries.
    """
    n_targets, n_queries = table.shape
    active = np.arange(n_targets)
    rank = np.zeros(n_targets, dtype=np.int64)  # dense class rank, aligned with active
    held = _label_counts(table, active, width)
    if n_targets >= _INT32_TARGETS:
        held = held.astype(np.int64)
    split = None  # (targets, keys) of the last pick, until a cell round needs its counts
    chosen: list[int] = []
    while active.size:
        if not n_queries:
            raise ValueError("targets are not separable by the given queries")
        pairs_left = _unresolved_pairs(rank)
        if pairs_left <= _PAIR_PHASE_FACTOR * active.size:
            return chosen + _pair_refinement(table, *_class_pairs(active, rank))
        if split is not None:
            held = _split_counts(table, width, held, *split)
        unresolved = (np.einsum("ij,ij->j", held, held) - active.size) // 2
        low = int(unresolved.min())
        if low >= pairs_left:
            raise ValueError("targets are not separable by the given queries")
        tied = np.flatnonzero(unresolved == low)
        w = int(tied[np.argmin(held[:, tied].max(axis=0))])
        chosen.append(w)
        keys = rank * width + table[active, w]
        alive = held[:, w] > 1  # the children that stay classes, in key order
        kept = alive[keys]
        split = active, keys
        active, rank = active[kept], (np.cumsum(alive) - 1)[keys[kept]]
    return chosen


def _unresolved_pairs(rank: np.ndarray) -> int:
    counts = np.bincount(rank)
    return int((counts * (counts - 1) // 2).sum())


def _class_pairs(active: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (xs[i], ys[i]) of targets in ``active`` with equal ``rank``.

    Within a class, xs[i] comes before ys[i] in one fixed order of its members.
    """
    order = np.argsort(rank, kind="stable")
    members = active[order]
    sizes = np.bincount(rank)
    # a member pairs with every later member of its class
    partners = np.repeat(np.cumsum(sizes), sizes) - np.arange(1, members.size + 1)
    first = np.repeat(np.arange(members.size), partners)
    step = np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)
    return members[first], members[first + step + 1]


def _pair_counts(table: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """For every query, how many of the pairs (xs[i], ys[i]) it leaves equal."""
    equal = np.zeros(table.shape[1], dtype=np.int64)
    for p0 in range(0, xs.size, _PAIR_BLOCK):
        eq = table[xs[p0 : p0 + _PAIR_BLOCK]] == table[ys[p0 : p0 + _PAIR_BLOCK]]
        equal += np.add.reduce(eq.view(np.uint8), axis=0, dtype=np.uint8)
    return equal


def _worst_cells(table: np.ndarray, xs: np.ndarray, ys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Largest cell of each of ``queries``, where (xs, ys) are the pairs within
    the current classes, listed as ``_class_pairs`` lists them.

    The pairs a query leaves equal join each of its cells into a clique,
    and the cell's first member in the order of ``_class_pairs`` is the xs
    of a pair with every other member.  So the largest cell is 1 + the
    most pairs left equal that share one xs.  Only the given query columns
    are read, a budget-sized block at a time.
    """
    n_targets = table.shape[0]
    worst = np.empty(queries.size, dtype=np.int64)
    for c0, c1 in _column_blocks(queries.size, xs.size, n_targets):
        cols = queries[c0:c1]
        pair, col = np.nonzero(table[np.ix_(xs, cols)] == table[np.ix_(ys, cols)])
        partners = np.bincount(xs[pair] * cols.size + col, minlength=n_targets * cols.size)
        worst[c0:c1] = partners.reshape(n_targets, cols.size).max(axis=0) + 1
    return worst


def _pair_refinement(table: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """The greedy rounds of ``_greedy_refinement`` scored over pairs.

    ``(xs, ys)`` lists every pair of targets within the current classes.
    Each round counts, per query, the pairs it leaves equal, which is the
    cell kernel's (sum of squared cell sizes - |rows|) / 2, breaks ties as
    the cell rounds do and keeps only the pairs the chosen query
    leaves equal.
    """
    chosen: list[int] = []
    while True:
        unresolved = _pair_counts(table, xs, ys)
        low = int(unresolved.min())
        if low >= xs.size:
            raise ValueError("targets are not separable by the given queries")
        tied = np.flatnonzero(unresolved == low)
        w = int(tied[0])
        if low and tied.size > 1:  # with low == 0 every worst cell is 1
            w = int(tied[np.argmin(_worst_cells(table, xs, ys, tied))])
        chosen.append(w)
        keep = table[xs, w] == table[ys, w]
        xs, ys = xs[keep], ys[keep]
        if not xs.size:
            return chosen


def _distances(g: Graph, dm: DistanceMatrix | None) -> DistanceMatrix:
    """The distance matrix a graph solver reads: ``dm`` when given, after
    checking that it has ``g``'s node count (ValueError otherwise), else
    a fresh ``distance_matrix(g)``."""
    if dm is None:
        return distance_matrix(g)
    if dm.n != g.n:
        raise ValueError(f"distance matrix has {dm.n} nodes, graph has {g.n}")
    return dm


def md_greedy(g: Graph, dm: DistanceMatrix | None = None) -> QuerySet:
    """Greedy resolving set; scalable upper bound on the metric dimension.

    Each round adds the query that leaves the fewest node pairs unresolved
    (ties: smaller worst class, then lower index).  The early rounds score
    every query over the class cells of the still-confusable nodes, from
    cell counts held across rounds: each pick recounts only the nodes
    outside the largest part of each class it splits.  Once few pairs are
    left, the remaining rounds score queries over the list of those pairs.
    Both phases pick the same queries.

    Pass a precomputed ``dm`` of ``g`` to skip the all-pairs BFS and to
    share its label table with later games on ``dm``; a ``dm`` of another
    node count is a ValueError.  The result is verified resolving before
    it is returned.
    """
    dm = _distances(g, dm)
    engine = dm._engine  # DisconnectedGraphError if disconnected
    if g.n == 1:
        return QuerySet(())
    chosen = _greedy_refinement(*engine.compact_table())
    result = QuerySet(tuple(chosen))
    if not is_resolving(dm, result):  # pragma: no cover - termination guarantees this
        raise RuntimeError("greedy produced a non-resolving set")
    return result
