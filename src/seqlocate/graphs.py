"""Graph arena for localization games.

Simple undirected graphs on the dense node range 0..n-1, hop-distance
computation, distance level sets, and a plain-text edge-list format.
Distances are exact BFS hop counts; unreachable pairs carry the
``UNREACHABLE`` sentinel, which compares strictly greater than any real
distance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Sentinel for "no path".  Any valid hop distance is at most n - 1 < 2**31 - 1,
# so the sentinel is strictly greater than every real distance.
UNREACHABLE: int = 2**31 - 1


class GraphFormatError(ValueError):
    """Malformed edge-list input: bad header, bad token, self-loop, duplicate."""


class DisconnectedGraphError(RuntimeError):
    """An operation that needs a connected graph got a disconnected one."""


class Graph:
    """Simple undirected graph with per-node sorted adjacency.

    Nodes are exactly 0..n-1.  Self-loops and parallel edges are rejected.
    Neighbor lists are kept sorted ascending so that iteration order is
    deterministic everywhere downstream.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        seen: set[tuple[int, int]] = set()
        us: list[int] = []
        vs: list[int] = []
        for edge in edges:
            u, v = edge
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            us.append(key[0])
            vs.append(key[1])
        self.n = n
        self.adj = _build_adjacency(n, np.asarray(us, dtype=np.int32), np.asarray(vs, dtype=np.int32))

    @classmethod
    def from_edge_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Fast path for trusted callers (samplers): no per-edge validation."""
        g = cls.__new__(cls)
        g.n = int(n)
        g.adj = _build_adjacency(g.n, np.asarray(u, dtype=np.int32), np.asarray(v, dtype=np.int32))
        return g

    @property
    def num_edges(self) -> int:
        return sum(a.size for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return int(self.adj[v].size)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            nb = self.adj[u]
            out.extend((u, int(v)) for v in nb[nb > u])
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.num_edges})"


def _build_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    ends = np.concatenate([u, v])
    starts = np.concatenate([v, u])
    order = np.lexsort((ends, starts))
    starts = starts[order]
    ends = ends[order]
    bounds = np.searchsorted(starts, np.arange(n + 1, dtype=np.int32))
    return [ends[bounds[i]:bounds[i + 1]] for i in range(n)]


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; ``d[v, w]`` is the distance from v to w."""

    n: int
    d: np.ndarray  # (n, n) int32, UNREACHABLE where no path exists

    def __post_init__(self) -> None:
        if self.d.shape != (self.n, self.n):
            raise ValueError("distance matrix shape does not match node count")


def bfs_distances(g: Graph, v: int) -> np.ndarray:
    """Hop distances from ``v`` to every node, by plain queue-based BFS.

    This is the reference implementation; ``distance_matrix`` uses a packed
    multi-source engine and is cross-checked against this one.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"source {v} out of range for n={g.n}")
    dist = np.full(g.n, UNREACHABLE, dtype=np.int32)
    dist[v] = 0
    queue = deque([v])
    while queue:
        cur = queue.popleft()
        nxt = dist[cur] + 1
        for nb in g.adj[cur]:
            if dist[nb] == UNREACHABLE:
                dist[nb] = nxt
                queue.append(nb)
    return dist


def distances_from_sources(g: Graph, sources) -> np.ndarray:
    """Hop distances from each source node, one row per source.

    Runs all sources simultaneously: each node carries a bitset of the
    sources that have reached it, and one pass per BFS level ORs every
    node's bitset with its neighbors'.  Cost per level is O(m * words),
    which is what makes dimension sweeps at n in the thousands practical.
    """
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 1 or src.size == 0:
        raise ValueError("sources must be a nonempty 1-d sequence")
    if np.unique(src).size != src.size:
        raise ValueError("duplicate source nodes")
    if src.min() < 0 or src.max() >= g.n:
        raise IndexError("source out of range")
    n = g.n
    s = src.size
    words = (s + 63) // 64
    reach = np.zeros((n, words), dtype=np.uint64)
    lane = np.arange(s, dtype=np.int64)
    reach[src, lane // 64] |= np.uint64(1) << (lane % 64).astype(np.uint64)
    dist = np.full((s, n), UNREACHABLE, dtype=np.int32)
    dist[lane, src] = 0
    adj = g.adj
    level = 0
    while True:
        level += 1
        if level > n:
            raise RuntimeError("BFS failed to terminate")  # cannot happen
        new = reach.copy()
        for v in range(n):
            nb = adj[v]
            if nb.size:
                new[v] |= np.bitwise_or.reduce(reach[nb], axis=0)
        changed = np.nonzero((new != reach).any(axis=1))[0]
        if changed.size == 0:
            break
        for v in changed:
            fresh = new[v] & ~reach[v]
            bits = np.unpackbits(fresh.view(np.uint8), bitorder="little")[:s]
            dist[np.nonzero(bits)[0], v] = level
        reach = new
    return dist


def distance_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs hop distances for ``g``."""
    return DistanceMatrix(g.n, distances_from_sources(g, np.arange(g.n)))


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0.

    Frontier BFS over the arc arrays: each level gathers the frontier flag
    of every arc's tail and marks the heads it reaches.  ``bfs_distances``
    is the reference it is tested against.
    """
    heads = np.concatenate(g.adj)
    tails = np.repeat(np.arange(g.n, dtype=np.int32), np.fromiter(map(len, g.adj), np.intp, g.n))
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = seen
    while not seen.all():
        reached = np.zeros(g.n, dtype=bool)
        reached[heads[frontier[tails]]] = True
        frontier = reached & ~seen
        if not frontier.any():
            return False
        seen |= frontier
    return True


def matrix_is_connected(dm: DistanceMatrix) -> bool:
    # Undirected graph: row 0 finite iff every node reaches node 0.
    return bool((dm.d[0] != UNREACHABLE).all())


def level_set(dm: DistanceMatrix, v: int, l: int) -> np.ndarray:
    """Nodes at hop distance exactly ``l`` from ``v``, sorted ascending."""
    if not 0 <= v < dm.n:
        raise IndexError(f"node {v} out of range")
    return np.nonzero(dm.d[v] == l)[0]


def diameter(dm: DistanceMatrix) -> int:
    """Largest hop distance, or UNREACHABLE if the graph is disconnected."""
    if not matrix_is_connected(dm):
        return UNREACHABLE
    return int(dm.d.max())


def read_edge_list(text: str) -> Graph:
    """Parse the plain-text format: header line "N M", then M lines "u v"."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad header {lines[0]!r}, expected 'N M'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if n < 1 or m < 0:
        raise GraphFormatError(f"bad header values n={n}, m={m}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def write_edge_list(g: Graph) -> str:
    """Serialize to the same format ``read_edge_list`` accepts (LF endings)."""
    out = [f"{g.n} {g.num_edges}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
