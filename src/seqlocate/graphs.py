"""Graph arena for localization games.

Simple undirected graphs on the dense node range 0..n-1, hop-distance
computation, distance level sets, and a plain-text edge-list format.
Distances are exact BFS hop counts; unreachable pairs carry the
``UNREACHABLE`` sentinel, which compares strictly greater than any real
distance.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Sentinel for "no path".  Any valid hop distance is at most n - 1 < 2**31 - 1,
# so the sentinel is strictly greater than every real distance.
UNREACHABLE: int = 2**31 - 1


class GraphFormatError(ValueError):
    """Malformed edge-list input: bad header, bad token, self-loop, duplicate."""


class DisconnectedGraphError(RuntimeError):
    """An operation that needs a connected graph got a disconnected one."""


class Graph:
    """Simple undirected graph in compressed sparse row (CSR) form.

    Nodes are exactly 0..n-1.  The neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]`` (int32, sorted ascending, so
    iteration order is deterministic everywhere downstream).  ``edges`` is
    an (m, 2) integer array or an iterable of pairs, in either orientation;
    an edge that is not a pair, an end that is not an integer (a float,
    even 1.0, a string or None), an end outside 0..n-1, a self-loop or an
    edge given twice raises ValueError, naming the first such edge in input
    order for the first kind (in a list) and the last three.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            ends = np.asarray(edges)
        except ValueError:  # ragged: some edge is not a pair
            raise ValueError(_not_a_pair(edges)) from None
        if ends.size and ends.shape[1:] != (2,):
            if isinstance(edges, np.ndarray):
                raise ValueError(f"edges must be an (m, 2) array, got shape {ends.shape}")
            raise ValueError(_not_a_pair(edges))
        pairs = _index_array(ends, "edge ends").reshape(-1, 2)  # ends past int64 as Python ints
        self.n = n
        # Each end's array contiguous for the checks; sample_gnp's (2, m).T is not copied.
        self.indptr, self.indices = _build_csr(n, np.ascontiguousarray(pairs.T))

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def degree(self, v: int) -> int:
        v = _node_indices(v, self.n, "node", "node {} out of range", one=True)
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return list(zip(*self._edge_ends()))

    def _edge_ends(self) -> tuple[list[int], list[int]]:
        """The ends u and v of ``edges()`` as two lists, without the tuples."""
        tails = np.repeat(np.arange(self.n), np.diff(self.indptr))
        up = tails < self.indices
        return tails[up].tolist(), self.indices[up].tolist()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.num_edges})"


def _index_array(values, what: str) -> np.ndarray:
    """The package's one integer rule, for edge ends and node indices alike:
    ``values`` (an array, a scalar or any iterable) as an int64 array, or
    as an object array of Python ints when one is past int64, for the
    caller's range check to name.  Integer and bool arrays convert in one
    step, an int64 array with no copy; anything that is not an integer (a
    float, even 1.0, a string or None) raises ValueError naming ``what``.
    """
    if not isinstance(values, np.ndarray) and np.iterable(values):
        values = list(values)
    arr = np.asarray(values)  # a list holding an int past int64 gives uint64 or object
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    kind = arr.dtype.kind
    if arr.size and not (kind == "u" or kind == "O" and all(isinstance(x, numbers.Integral) for x in arr.flat)):
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    try:
        return arr.astype(object).astype(np.int64)
    except OverflowError:  # an integer past int64
        return arr.astype(object)


def _node_indices(values, n: int | None, what: str, message: str, error=IndexError, *, one=False) -> np.ndarray:
    """The package's one node rule: ``values`` as int64 indices by the integer
    rule (``_index_array``), one node if ``one`` (else ValueError), each in
    0..n-1 (n None: >= 0), else ``error(message.format(first outside, n=n))``."""
    nodes = _index_array(values, what)
    if one and nodes.ndim:
        raise ValueError(f"{what} must be one node, got shape {nodes.shape}")
    outside = nodes < 0 if n is None else (nodes < 0) | (nodes >= n)
    if outside.any():
        raise error(message.format(nodes.reshape(-1)[outside.argmax()], n=n))
    return nodes


def _not_a_pair(edges: list) -> str:
    """The error for the first edge in ``edges`` that is not a pair."""
    for e in edges:
        try:
            if np.shape(e) == (2,):
                continue
        except ValueError:  # a ragged edge, such as ((0,), 1)
            pass
        return f"edge {e!r} is not a pair"
    raise AssertionError("every edge is a pair")


def _build_csr(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays ``(indptr, indices)`` of the edges ``ends[0, k]-ends[1, k]``.

    Each edge gives two arcs, keyed ``start*n + end``; one in-place sort of
    the keys orders the arcs by start, then end.  The keys are int32 when
    every key and the search bound ``n*n`` fit it (n <= 46340), which sorts
    faster, and int64 above.  The edge rule: all ends in range (checked
    first, as an end out of range can share a valid arc's key), then no
    equal neighbouring keys, which a self-loop or an edge given twice makes.
    """
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError(_first_bad_edge(n, *ends))
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    cast = ends.astype(dtype, copy=False)
    keys = cast * dtype(n)
    keys += cast[::-1]
    keys = keys.reshape(-1)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(_first_bad_edge(n, *ends))
    row_keys = np.arange(n + 1, dtype=dtype) * dtype(n)
    indptr = np.searchsorted(keys, row_keys)
    keys -= np.repeat(row_keys[:-1], np.diff(indptr))  # start*n + end -> end
    return indptr, keys.astype(np.int32, copy=False)


def _first_bad_edge(n: int, u: np.ndarray, v: np.ndarray) -> str:
    """The error for the first edge in input order that has an end out of range
    (``u``, ``v`` may be object arrays, for ends past int64), is a self-loop or
    repeats an earlier edge; a key below repeats only at such bad edges."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first = np.zeros(u.size, dtype=bool)
    first[np.unique(lo * n + hi, return_index=True)[1]] = True
    k = int(np.argmax(~first | ((lo < 0) | (hi >= n) | (lo == hi)).astype(bool)))
    a, b = int(u[k]), int(v[k])
    if not (0 <= a < n and 0 <= b < n):
        return f"edge ({a}, {b}) out of range for n={n}"
    return f"self-loop at node {a}" if a == b else f"duplicate edge ({a}, {b})"


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; ``d[v, w]`` is the distance from v to w."""

    n: int
    d: np.ndarray  # (n, n) int32, UNREACHABLE where no path exists

    def __post_init__(self) -> None:
        if self.d.shape != (self.n, self.n):
            raise ValueError("distance matrix shape does not match node count")

    @cached_property
    def _engine(self):
        """The game engine over ``d``, built on first use and shared by every
        solver and stepwise function given this matrix.

        Building it is the connectivity check: it raises
        DisconnectedGraphError when some pair has no path.
        """
        from .game import _LabelGameEngine  # game imports this module

        # Undirected: row 0 is finite iff every node reaches node 0.
        if (self.d[0] == UNREACHABLE).any():
            raise DisconnectedGraphError("the graph is disconnected")
        return _LabelGameEngine(self.d)


def bfs_distances(g: Graph, v: int) -> np.ndarray:
    """Hop distances from ``v`` to every node, by plain queue-based BFS.

    This is the reference implementation; ``distance_matrix`` uses a packed
    multi-source engine and is cross-checked against this one.
    """
    v = int(_node_indices(v, g.n, "source", "source {} out of range for n={n}", one=True))
    dist = np.full(g.n, UNREACHABLE, dtype=np.int32)
    dist[v] = 0
    queue = deque([v])
    while queue:
        cur = queue.popleft()
        nxt = dist[cur] + 1
        for nb in g.indices[g.indptr[cur]:g.indptr[cur + 1]]:
            if dist[nb] == UNREACHABLE:
                dist[nb] = nxt
                queue.append(nb)
    return dist


def distances_from_sources(g: Graph, sources) -> np.ndarray:
    """Hop distances from each source node, one row per source.

    Runs all s sources at once (bit-parallel BFS, cf. Akiba, Iwata and
    Yoshida, SIGMOD 2013): source k is lane k, and every node carries a
    bitset of the lanes that have reached it, in ``words = ceil(s/64)``
    uint64 words.  Level 1 reads one index per arc: each node's arcs from
    sources set its lanes in a byte plane, which gives the distances 1 and
    is packed into the first frontier.  At each later level, an open node
    (one that some lane has not reached yet) ORs only the bits its
    neighbours gained at the previous level, for a block of open nodes at
    a time, with ``np.bitwise_or.reduceat``.  A node that every lane has
    reached leaves the open set, even partway through its arc list, and
    the search stops once no node is open or a level adds nothing.
    Unreachable pairs keep ``UNREACHABLE``.

    Cost per level is O(words * sum of the open nodes' degrees) for the
    reductions, and far less on dense graphs, where a few dozen neighbours
    cover every lane, plus O(s * open nodes) to write the new distances:
    a block that gained many lanes subtracts its whole gained mask from
    its rows, one that gained few sets them through it (``_few_gained``).
    Memory is the (s, n) int32 output, three (n, words) bitsets (reach, the
    frontier and the next frontier) and per-block temporaries of at most
    ``_BLOCK_WORDS`` words each, unless a block's single node alone
    exceeds that.
    """
    src = _node_indices(sources, g.n, "sources", "source out of range")
    if src.ndim != 1 or src.size == 0:
        raise ValueError("sources must be a nonempty 1-d sequence")
    if np.unique(src).size != src.size:
        raise ValueError("duplicate source nodes")
    n = g.n
    s = src.size
    words = (s + 63) // 64
    indptr, indices = g.indptr, g.indices
    degree = np.diff(indptr)
    lanes = np.arange(s)
    lane_of = np.full(n, s, dtype=np.int64)  # s: the spare lane of non-sources
    lane_of[src] = lanes
    # Distances are written as (node, lane) rows: row v holds v's distance
    # to every source, in the caller's source order.
    out = np.full((n, s), UNREACHABLE, dtype=np.int32)
    out[src, lanes] = 0

    # Level 1: the arcs into each node, scattered onto the lanes of their
    # source tails in a uint8 plane with one spare column, where the arcs
    # from non-sources land, then packed into the frontier bits.  A block's
    # cost counts, per node, the neighbour indices it reads (one each, not
    # a bitset) and its int32 output row, 32 words per word of lanes.
    frontier = np.zeros((n, words), dtype=np.uint64)
    for lo, hi in _blocks(degree + 32 * words, _BLOCK_WORDS):
        plane = np.zeros((hi - lo, s + 1), dtype=np.uint8)
        slots = np.repeat(np.arange(0, (hi - lo) * (s + 1), s + 1), degree[lo:hi])
        slots += lane_of[indices[indptr[lo]:indptr[hi]]]
        plane.reshape(-1)[slots] = 1
        plane = plane[:, :s]
        # A lane set here is a source's neighbour, so still UNREACHABLE.
        out[lo:hi] -= plane * np.int32(UNREACHABLE - 1)
        frontier.view(np.uint8)[lo:hi, :(s + 7) // 8] = np.packbits(plane, axis=1, bitorder="little")
    reach = frontier.copy()
    reach.view(np.uint8)[src, lanes // 8] |= (1 << (lanes % 8)).astype(np.uint8)
    full = np.full(words, ~np.uint64(0))
    if s % 64:
        full[-1] = (np.uint64(1) << np.uint64(s % 64)) - np.uint64(1)
    open_nodes = np.nonzero((degree > 0) & (reach != full).any(axis=1))[0]

    # Levels 2 and up.  An open node ORs its neighbours' frontier bits in
    # passes over growing runs of its arc list (_FIRST_RUN arcs, then twice
    # as many, ...) and leaves the level once every lane has reached it.
    nxt = np.zeros_like(frontier)
    level = 1
    while open_nodes.size and frontier.any():
        level += 1
        nodes, cursor = open_nodes, indptr[open_nodes]
        run_cap = _FIRST_RUN
        left_open = []
        while nodes.size:
            run = np.minimum(indptr[nodes + 1] - cursor, run_cap)
            not_full = np.empty(nodes.size, dtype=bool)
            for lo, hi in _blocks((run + 32) * words, _BLOCK_WORDS):
                b = nodes[lo:hi]
                arcs, starts = _runs(cursor[lo:hi], run[lo:hi])
                gained = np.bitwise_or.reduceat(frontier[indices[arcs]], starts, axis=0)
                old = reach[b]
                gained &= ~old
                old |= gained
                reach[b] = old
                nxt[b] |= gained
                rows = out[b]
                mask = np.unpackbits(gained.view(np.uint8), axis=1, count=s, bitorder="little")
                if _few_gained(gained):
                    rows[mask.view(bool)] = level
                else:
                    # A gained lane had not reached the node, so its entry
                    # is still UNREACHABLE, and subtracting lands it on level.
                    rows -= mask * np.int32(UNREACHABLE - level)
                out[b] = rows
                not_full[lo:hi] = (old != full).any(axis=1)
            cursor = cursor + run
            more = cursor < indptr[nodes + 1]
            left_open.append(nodes[not_full & ~more])
            nodes, cursor = nodes[not_full & more], cursor[not_full & more]
            run_cap *= 2
        open_nodes = np.sort(np.concatenate(left_open))
        frontier, nxt = nxt, frontier
        nxt[:] = 0
    if s == n and (src == np.arange(n)).all():
        return out  # undirected: row v, lane w is d(w, v) = d(v, w)
    return np.ascontiguousarray(out.T)


# Per-block work of ``distances_from_sources``, in uint64 words: the
# neighbour bitsets a block of nodes gathers, or its output rows.  2**16
# words (512 KiB) keeps a block in cache; 2**20 ran 1.5x slower at n=2000.
_BLOCK_WORDS = 2**16
# Arcs an open node reads in its first pass of a level.  At n=2000 this
# many neighbours cover every lane at level 2 for p=0.3, and the whole arc
# list at p=0.02 (mean degree 40), so both finish a level in one pass.
_FIRST_RUN = 64


def _few_gained(gained: np.ndarray) -> bool:
    """True when under half of a block's ``gained`` words are nonzero, the
    write form rule of ``distances_from_sources``.  Setting the gained
    lanes through a boolean mask costs per lane set, a subtraction of the
    whole mask per lane held; they break even near 2% of lanes set, which
    on lanes spread at random leaves about half the words zero.  A cycle's
    nodes gain at most two lanes a level, so past 256 lanes its blocks
    take the mask.
    """
    return 2 * np.count_nonzero(gained) < gained.size


def _runs(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``first[k] .. first[k] + count[k] - 1`` of every run k,
    run after run, and the offset where each run starts among them."""
    starts = np.cumsum(count) - count
    return np.repeat(first - starts, count) + np.arange(starts[-1] + count[-1]), starts


def _blocks(cost: np.ndarray, budget: int):
    """Consecutive ``(lo, hi)`` runs of ``cost`` whose sums stay within
    ``budget``; a run holds at least one entry."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < cost.size:
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def distance_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs hop distances for ``g``."""
    return DistanceMatrix(g.n, distances_from_sources(g, np.arange(g.n)))


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0.

    Frontier BFS over the CSR arcs: each level gathers the arcs of the
    frontier nodes only, and the heads they reach that were not seen
    before are the next frontier.  ``bfs_distances`` is the reference it
    is tested against.
    """
    indptr, indices = g.indptr, g.indices
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    left = g.n - 1
    while left:
        first = indptr[frontier]
        arcs, _ = _runs(first, indptr[frontier + 1] - first)
        reached = np.zeros(g.n, dtype=bool)
        reached[indices[arcs]] = True
        reached &= ~seen
        frontier = np.flatnonzero(reached)
        if not frontier.size:
            return False
        seen |= reached
        left -= frontier.size
    return True


def level_set(dm: DistanceMatrix, v: int, l: int) -> np.ndarray:
    """Nodes at hop distance exactly ``l`` from ``v``, sorted ascending."""
    v = _node_indices(v, dm.n, "node", "node {} out of range", one=True)
    return np.nonzero(dm.d[v] == l)[0]


def diameter(dm: DistanceMatrix) -> int:
    """Largest hop distance, or UNREACHABLE if the graph is disconnected."""
    return int(dm.d.max())


def _read_header(text: str, error: type[ValueError], names: str) -> tuple[int, int, list[str]]:
    """The two header integers, named ``names`` (``'N M'``) in the error, and
    the body lines after them; lines are stripped and blank ones dropped."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise error("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise error(f"bad header {lines[0]!r}, expected {names!r}")
    try:
        return int(head[0]), int(head[1]), lines[1:]
    except ValueError as exc:
        raise error(f"bad header {lines[0]!r}") from exc


def read_edge_list(text: str) -> Graph:
    """Parse the plain-text format: header line "N M", then M lines "u v".

    One ``np.array`` call converts every edge token; only when that fails
    are the lines parsed one by one, so that the error names the bad line.
    """
    n, m, body = _read_header(text, GraphFormatError, "N M")
    if n < 1 or m < 0:
        raise GraphFormatError(f"bad header values n={n}, m={m}")
    if len(body) != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(body)}")
    try:  # a line of 1 token leaves too few; of 3 or more, a token "1 2" int() rejects
        edges = np.array([t for ln in body for t in ln.split(None, 1)], dtype=np.int64).reshape(m, 2)
    except (ValueError, OverflowError):
        edges = []
        for ln in body:
            try:
                u, v = map(int, ln.split())
            except ValueError as exc:
                raise GraphFormatError(f"bad edge line {ln!r}") from exc
            edges.append((u, v))
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def write_edge_list(g: Graph) -> str:
    """Serialize to the same format ``read_edge_list`` accepts (LF endings)."""
    return "\n".join([f"{g.n} {g.num_edges}", *map("{} {}".format, *g._edge_ends())]) + "\n"
