"""The adaptive localization game.

Player 1 queries nodes one at a time and learns the hop distance from each
query to a hidden target; the adversary answers with any distance that is
consistent with at least one remaining candidate.  The value of the game
with both sides optimal is the sequential metric dimension.  MAX-GAIN is
the greedy query rule: pick the node whose distance partition has the
smallest largest cell.

The machinery is generic over a response table ``labels[w, t]`` (the answer
to query w when the target is t), so the same engine drives both the graph
game (labels = hop distances) and the binary-matrix game.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .graphs import DistanceMatrix, Graph, _node_indices, distance_matrix
from .localization import (
    CapExceededError, QuerySet, _bitsets, _check_cap, _column_blocks, _distances, _label_counts, _label_table,
    _query_rows,
)

_P1_KINDS = ("max-gain", "exact-minimax", "fixed-sequence")
_ADV_KINDS = ("fixed-target", "greedy-max-cell", "exact-minimax")

# The exact search memoizes bounds on candidate bitsets, Python ints of any
# width; the limit guards only its run time, which grows fast with the
# number of targets.
_BITSET_LIMIT = 64


@dataclass(frozen=True)
class Player1Policy:
    """Query-selection rule for the seeker."""

    kind: str
    sequence: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _P1_KINDS:
            raise ValueError(f"unknown player-1 policy {self.kind!r}")
        if self.kind == "fixed-sequence":
            if not self.sequence:
                raise ValueError("fixed-sequence policy needs at least one node")
            QuerySet(self.sequence)
        elif self.sequence:
            raise ValueError(f"policy {self.kind!r} takes no sequence")

    @classmethod
    def max_gain(cls) -> "Player1Policy":
        return cls("max-gain")

    @classmethod
    def exact_minimax(cls) -> "Player1Policy":
        return cls("exact-minimax")

    @classmethod
    def fixed_sequence(cls, nodes) -> "Player1Policy":
        return cls("fixed-sequence", tuple(nodes))


@dataclass(frozen=True)
class AdversaryPolicy:
    """Answer-selection rule for the hider."""

    kind: str
    target: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ADV_KINDS:
            raise ValueError(f"unknown adversary policy {self.kind!r}")
        if self.kind == "fixed-target":
            _node_indices(self.target, None, "target", "target {} out of range", ValueError, one=True)
        elif self.target is not None:
            raise ValueError(f"policy {self.kind!r} takes no target")

    @classmethod
    def fixed_target(cls, target: int) -> "AdversaryPolicy":
        return cls("fixed-target", target)

    @classmethod
    def greedy_max_cell(cls) -> "AdversaryPolicy":
        return cls("greedy-max-cell")

    @classmethod
    def exact_minimax(cls) -> "AdversaryPolicy":
        return cls("exact-minimax")


# The SMD estimate: one game of MAX-GAIN against the adversary that keeps
# the largest cell, the estimator that ``experiments.SummaryRow.estimator``
# labels.
SMD_ESTIMATE_POLICIES = (Player1Policy.max_gain(), AdversaryPolicy.greedy_max_cell())


@dataclass
class GameState:
    """One side's view of a running game: history plus remaining candidates."""

    queries: list[int]
    observations: list[int]
    candidates: np.ndarray

    def __post_init__(self) -> None:
        if len(self.queries) != len(self.observations):
            raise ValueError("queries and observations must have equal length")
        QuerySet(tuple(self.queries))


def initial_state(n: int) -> GameState:
    return GameState(queries=[], observations=[], candidates=np.arange(n))


@dataclass(frozen=True)
class TranscriptStep:
    step: int  # 1-based
    query: int
    answer: int
    candidates: int  # |T| after this step


@dataclass
class Transcript:
    """Record of one played game."""

    initial_candidates: int
    steps: list[TranscriptStep] = field(default_factory=list)
    resolved: bool = False
    final_candidates: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def candidate_sizes(self) -> list[int]:
        """|T| before play, then after each step."""
        return [self.initial_candidates] + [s.candidates for s in self.steps]

    def to_json_lines(self) -> str:
        return "".join(json.dumps(asdict(s)) + "\n" for s in self.steps)


def _min_largest_cell(largest: np.ndarray, pool: np.ndarray, size: int) -> tuple[int, int]:
    """The MAX-GAIN choice from the largest cell of every query: the
    (query, largest cell) with the smallest cell among the queries where
    the boolean mask ``pool`` is set, lowest index on ties.  ``size`` is
    the candidate count, above every cell.  Raises ValueError on an empty
    pool."""
    if not pool.any():
        raise ValueError("empty query pool")
    scores = np.where(pool, largest, size + 1)
    best_w = int(np.argmin(scores))
    return best_w, int(scores[best_w])


class _LabelGameEngine:
    """Shared machinery over a response table, array path plus bitset path.

    The one owner of a response table: a ``DistanceMatrix`` carries one
    engine, and every solver, played game and stepwise function given that
    matrix reads the table through it.  The array path (candidate index
    arrays, label counts per query) scales to thousands of targets and drives
    played games and the greedy resolving set.  The bitset path encodes
    candidate sets as ints for the exact game value, a bounded decision
    search seeded by the MAX-GAIN worst case, and is limited to 64 targets.
    """

    def __init__(self, labels: np.ndarray) -> None:
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.shape[0] == 0 or labels.shape[1] == 0:
            raise ValueError("label table must be 2-d and nonempty")
        self.labels = labels
        self.nq, self.nt = labels.shape
        self._compact: tuple[np.ndarray, int] | None = None
        self._worst_memo: dict[int, int] = {}
        self._lo: dict[int, int] = {}  # proven lower bounds of the game value
        self._hi: dict[int, int] = {}  # proven upper bounds of the game value
        self._search: tuple[list[tuple[int, ...]], list[int], list[int]] | None = None
        self.expanded = 0  # masks whose queries the decision search scored

    # ---- array path -------------------------------------------------

    def compact_table(self) -> tuple[np.ndarray, int]:
        """The table in ``_label_table`` form and its width, cast and
        transposed once per engine."""
        if self._compact is None:
            self._compact = _label_table(self.labels)
        return self._compact

    def largest_cells(self, t: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Size of the largest cell of ``t`` under each query lo..hi-1,
        from the one-class counts of ``_label_counts``."""
        table, width = self.compact_table()
        return _label_counts(table, t, width, lo, hi).max(axis=0)

    def best_reducer(self, t: np.ndarray, pool: np.ndarray) -> tuple[int, int]:
        """argmin of the largest cell of ``t`` over the queries where the
        boolean mask ``pool`` is set, lowest index on ties."""
        return _min_largest_cell(self.largest_cells(t), pool, t.size)

    def answer(self, t: np.ndarray, w: int, policy: AdversaryPolicy) -> int:
        """The adversary's label for query w on candidates t under ``policy``.

        A fixed target answers its own label; greedy-max-cell the label of
        the largest cell (smallest on ties); exact-minimax ``exact_answer``.
        Callers check that w and the target are in range.
        """
        if policy.kind == "fixed-target":
            return int(self.labels[w, policy.target])
        if policy.kind == "greedy-max-cell":
            return int(np.argmax(np.bincount(self.labels[w, t])))
        return self.exact_answer(self.mask_of(t), w)

    # ---- bitset path ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.nt) - 1

    def _search_tables(self) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
        """Cell masks per query and the counting-bound tables of the search.

        ``cells[w]`` holds query w's cells as bitsets, ordered by their
        lowest target.  With k the most cells any query makes, ``reach[e]``
        = k**e is the most candidates that e queries can tell apart, and
        ``need[s]`` is the fewest queries that can resolve s candidates,
        the least e with k**e >= s.
        """
        if self._search is None:
            if self.nt > _BITSET_LIMIT:
                raise ValueError(
                    f"exact game machinery handles at most {_BITSET_LIMIT} targets, got {self.nt}"
                )
            same = self.labels[:, :, None] == self.labels[:, None, :]
            # a cell is listed at its lowest target, the first with its label
            w, low = np.nonzero(same.argmax(axis=1) == np.arange(self.nt))
            masks = _bitsets(same[w, low])
            ends = np.cumsum(np.bincount(w, minlength=self.nq)).tolist()
            cells = [tuple(masks[a:b]) for a, b in zip([0] + ends, ends)]
            k = max(map(len, cells))
            reach = [k**e for e in range(self.nt + 1)]
            need = [bisect_left(reach, s) for s in range(self.nt + 1)]
            self._search = cells, reach, need
        return self._search

    def splits(self, m: int) -> list[tuple[int, int, list[int]]]:
        """The queries that split the candidates in ``m``, in MAX-GAIN order.

        One entry (largest cell size, query, nonempty cells) per query with
        at least two nonempty cells, sorted by largest cell and then by
        query index.  The first cell is a largest one: the first of them in
        the order of ``_search_tables``, which lists a query's cells by
        their lowest target.  The search removes what lies outside it.  Raises
        ValueError when no query splits.
        """
        size = m.bit_count()
        out = []
        for w, cms in enumerate(self._search_tables()[0]):
            cells = []
            big = 0
            for cm in cms:
                c = m & cm
                if c:
                    s = c.bit_count()
                    if s <= big:
                        cells.append(c)
                    elif s == size:
                        break  # the first nonempty cell is all of m
                    else:
                        big = s
                        cells.insert(0, c)
            else:
                out.append((big, w, cells))
        if not out:
            raise ValueError("candidate set admits no splitting query")
        out.sort()
        return out

    def solve(self, mask: int, d: int) -> bool:
        """Can player 1 resolve the candidates in ``mask`` within d queries?

        A decision search over candidate bitsets.  It memoizes a proven
        lower and upper bound on the game value of each mask it settles,
        so later tests at other depths reuse them.  A mask fails at once
        when k**d is below its size (k: the most cells any query makes),
        or when a packing of candidates that no query removes two at a
        time is more than d + 1 large; a query is skipped when one of its
        cells exceeds k**(d-1).  Queries are tried smallest largest cell
        first (MAX-GAIN order), their cells largest first.  A failure
        stores the lower bound 1 + min over queries of the largest lower
        bound among the query's cells; a success stores 1 + the largest
        upper bound among the cells of the query that passed.
        """
        _, reach, need = self._search_tables()
        splits = self.splits
        lo_memo, hi_memo = self._lo, self._hi
        top = self.nt

        def lower(m: int) -> int:
            a = need[m.bit_count()]
            b = lo_memo.get(m, 0)
            return a if a > b else b

        def test(m: int, d: int) -> bool:
            if m & (m - 1) == 0:
                return d >= 0
            if lo_memo.get(m, 0) > d:
                return False
            if hi_memo.get(m, d + 1) <= d:
                return True
            size = m.bit_count()
            if need[size] > d:
                return False
            self.expanded += 1
            limit = reach[d - 1 if d <= top else top]
            scored = splits(m)
            removed = [m ^ cells[0] for _, _, cells in scored]
            # Packing bound: gather candidates no two of which any query
            # removes together.  Against the adversary that answers each
            # query's largest cell in m, every one of them but the last
            # left needs a query of its own.
            packed = 0
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                packed += 1
                for r in removed:
                    if r & low:
                        rest &= ~r
            if packed - 1 > d:
                lo_memo[m] = packed - 1
                return False
            best = top + 1  # least lower bound over the queries tried
            for big, _, cells in scored:
                if big > limit:
                    # This and every later query has a cell over the
                    # counting bound; only their lower bounds are left.
                    if need[big] >= best:
                        break
                    bound = max(map(lower, cells))
                    if bound < best:
                        best = bound
                    continue
                cells.sort(key=int.bit_count, reverse=True)
                for i, c in enumerate(cells):
                    if c & (c - 1) == 0 or hi_memo.get(c, d) < d:
                        continue  # already proven within d - 1
                    if lo_memo.get(c, 0) >= d or not test(c, d - 1):
                        # Later cells are no larger, so only their memo
                        # can raise the bound above this cell's.
                        bound = lower(c)
                        for x in cells[i + 1 :]:
                            b = lo_memo.get(x, 0)
                            if b > bound:
                                bound = b
                        if bound < best:
                            best = bound
                        break
                else:
                    hi_memo[m] = 1 + max(hi_memo.get(c, 0) for c in cells)
                    return True
            lo_memo[m] = 1 + best
            return False

        return test(mask, d)

    def game_value(self, mask: int | None = None) -> int:
        """Game value with both sides optimal.

        The MAX-GAIN worst case u is an upper bound; ``solve`` then tests
        u-1, u-2, ... (skipping to below each proven upper bound) until a
        test fails, and the value is one more than the failed depth.
        """
        if mask is None:
            mask = self.full_mask
        upper = self.maxgain_worst_value(mask)
        if self._hi.get(mask, upper + 1) > upper:
            self._hi[mask] = upper
        d = self._hi[mask] - 1
        while self.solve(mask, d):
            d = min(d, self._hi[mask]) - 1
        return d + 1

    def exact_value(self, cap: int | None = None) -> int:
        """``game_value`` of all targets, for ``smd_exact`` and ``sqc_exact``.

        A ``cap`` (see ``_check_cap``) first runs one test "resolvable
        within cap queries?" and raises CapExceededError when it fails.
        """
        _check_cap(cap)
        if cap is not None and not self.solve(self.full_mask, cap):
            raise CapExceededError(f"game value exceeds cap {cap}")
        return self.game_value()

    def worst_value(self, cap: int | None = None) -> int:
        """``maxgain_worst_value`` of all targets, for
        ``smd_maxgain_worstcase`` and ``sqc_maxgain_worstcase``;
        CapExceededError when it is above ``cap`` (see ``_check_cap``)."""
        _check_cap(cap)
        value = self.maxgain_worst_value()
        if cap is not None and value > cap:
            raise CapExceededError(f"worst-case step count {value} exceeds cap {cap}")
        return value

    def exact_p1_choice(self, mask: int) -> int:
        """Lowest-index query achieving the optimal game value from mask."""
        value = self.game_value(mask)
        for _, w, cells in sorted(self.splits(mask), key=itemgetter(1)):
            if all(self.solve(c, value - 1) for c in cells):
                return w
        raise RuntimeError("no query achieves the computed value")  # pragma: no cover

    def exact_answer(self, mask: int, w: int) -> int:
        """Label maximizing the remaining game value; smallest on ties."""
        row = self.labels[w]  # a cell's label is its lowest target's
        cells = self._search_tables()[0][w]
        labelled = sorted((int(row[(cm & -cm).bit_length() - 1]), mask & cm) for cm in cells)
        _, label = max((self.game_value(cell), -lab) for lab, cell in labelled if cell)
        return -label

    def maxgain_worst_value(self, mask: int | None = None) -> int:
        """Steps needed when player 1 is pinned to MAX-GAIN and the
        adversary plays the full worst case (tree maximum, memoized).

        At each mask only the MAX-GAIN query is sought (smallest largest
        cell, then lowest index; ``best_reducer``'s choice over the
        unqueried pool, as a queried node never splits the candidates).  A
        query is dropped at its first cell no smaller than the best largest
        cell so far, so a query that does not split is dropped too, and only
        the chosen query's cells are walked."""
        if mask is None:
            mask = self.full_mask
        cell_lists = self._search_tables()[0]
        memo = self._worst_memo

        def walk(m: int) -> int:
            if m & (m - 1) == 0:
                return 0  # also an empty cell of the chosen query
            cached = memo.get(m)
            if cached is not None:
                return cached
            best, chosen = m.bit_count(), None
            for cms in cell_lists:
                big = 0
                for cm in cms:
                    s = (m & cm).bit_count()
                    if s > big:
                        if s >= best:
                            break
                        big = s
                else:
                    best, chosen = big, cms
            if chosen is None:
                raise ValueError("candidate set admits no splitting query")
            result = 1 + max(walk(m & cm) for cm in chosen)
            memo[m] = result
            return result

        return walk(mask)

    def mask_of(self, t: np.ndarray) -> int:
        member = np.zeros((1, self.nt), dtype=bool)
        member[0, t] = True
        return _bitsets(member)[0]


def _check_step_cap(step_cap: int | None) -> None:
    """The step cap rule of every played game: None (the target count) or
    an int >= 1."""
    if step_cap is not None and step_cap < 1:
        raise ValueError(f"step cap must be >= 1, got {step_cap}")


def _play_on_labels(
    engine: _LabelGameEngine,
    p1: Player1Policy,
    p2: AdversaryPolicy,
    step_cap: int | None,
) -> Transcript:
    """Play one game on the engine's table; the body of ``play_game`` and
    of the matrix game.

    MAX-GAIN keeps the (labels, queries) counts of the candidate set across
    its steps (``_label_counts``) and reads each step's largest cells from
    them.  After an answer it counts whichever side is smaller: the kept
    cell, which replaces the counts, or the removed rest, which is
    subtracted from them.
    """
    nq, nt = engine.nq, engine.nt
    if p2.kind == "fixed-target":
        _node_indices(p2.target, nt, "target", "target {} out of range", ValueError)
    if p1.kind == "fixed-sequence":
        _node_indices(p1.sequence, nq, "query nodes", "fixed-sequence node out of range", ValueError)
    _check_step_cap(step_cap)
    cap = nt if step_cap is None else step_cap
    t = np.arange(nt)
    unqueried = np.ones(nq, dtype=bool)
    counts = None  # MAX-GAIN's label counts of t
    transcript = Transcript(initial_candidates=nt)
    while t.size > 1 and len(transcript.steps) < cap:
        if p1.kind == "max-gain":
            if counts is None:
                table, width = engine.compact_table()
                counts = _label_counts(table, t, width)
            w, _ = _min_largest_cell(counts.max(axis=0), unqueried, t.size)
        elif p1.kind == "exact-minimax":
            w = engine.exact_p1_choice(engine.mask_of(t))
        else:
            if len(transcript.steps) >= len(p1.sequence):
                break  # sequence exhausted with candidates remaining
            w = p1.sequence[len(transcript.steps)]
        l = engine.answer(t, w, p2)
        kept = engine.labels[w, t] == l
        if counts is not None:
            if 2 * np.count_nonzero(kept) <= t.size:
                counts = _label_counts(table, t[kept], width)
            else:
                counts -= _label_counts(table, t[~kept], width)
        t = t[kept]
        if t.size == 0:  # pragma: no cover - answers are always consistent
            raise RuntimeError("inconsistent answer emptied the candidate set")
        unqueried[w] = False
        transcript.steps.append(
            TranscriptStep(step=len(transcript.steps) + 1, query=int(w), answer=int(l), candidates=int(t.size))
        )
    transcript.resolved = t.size == 1
    transcript.final_candidates = t
    return transcript


def _checked(dm: DistanceMatrix, t, w: int | None = None) -> tuple[_LabelGameEngine, np.ndarray]:
    """``dm``'s engine and the candidate set ``t`` as an int64 array, after
    the checks the stepwise functions share: ``t`` is nonempty, ``t`` and
    query ``w`` (one node, when given) pass the node rule, and the graph is
    connected (the engine raises DisconnectedGraphError)."""
    t = _node_indices(t, dm.n, "candidates", "candidate out of range")
    if t.size == 0:
        raise ValueError("candidate set is empty")
    if w is not None:
        _node_indices(w, dm.n, "query", "query {} out of range", one=True)
    return dm._engine, t


def distance_partition(dm: DistanceMatrix, t: np.ndarray, w: int) -> dict[int, np.ndarray]:
    """Partition of candidate set ``t`` by distance to ``w``; nonempty cells only."""
    engine, t = _checked(dm, t, w)
    row = engine.labels[w, t]
    return {int(l): t[row == l] for l in np.unique(row)}


def reducer_score(dm: DistanceMatrix, t: np.ndarray, w: int) -> int:
    """Size of the largest cell of the distance partition of ``t`` under ``w``.

    Reads the one row of ``w``; the engine's compact table is not built."""
    engine, t = _checked(dm, t, w)
    return int(np.bincount(engine.labels[w, t]).max())


def max_gain_query(dm: DistanceMatrix, state: GameState, pool=None) -> int:
    """The MAX-GAIN choice: query minimizing the worst remaining cell.

    The default pool is every node not yet queried.  Ties go to the lowest
    node index.
    """
    if state.candidates.size < 2:
        raise ValueError("max-gain needs at least two candidates")
    engine, t = _checked(dm, state.candidates)
    if pool is None:
        pool = np.setdiff1d(np.arange(dm.n), state.queries)
    else:
        pool = _query_rows(dm, pool)
    in_pool = np.zeros(dm.n, dtype=bool)
    in_pool[pool] = True
    return engine.best_reducer(t, in_pool)[0]


def adversary_answer(dm: DistanceMatrix, state: GameState, w: int, policy: AdversaryPolicy) -> int:
    """The adversary's distance answer to query ``w`` under ``policy``.

    The exact-minimax answer reuses the game values that earlier calls on
    the same ``dm`` proved.
    """
    engine, t = _checked(dm, state.candidates, w)
    if policy.kind == "fixed-target":
        _node_indices(policy.target, dm.n, "target", "target {} out of range", ValueError)
    return engine.answer(t, w, policy)


def play_game(
    dm: DistanceMatrix,
    p1: Player1Policy,
    p2: AdversaryPolicy,
    step_cap: int | None = None,
) -> Transcript:
    """Play one game to resolution or to the step cap.

    Reaching the cap with more than one candidate left is reported on the
    transcript (``resolved`` False), not raised.
    """
    return _play_on_labels(dm._engine, p1, p2, step_cap)


def smd_exact(g: Graph, cap: int | None = None, dm: DistanceMatrix | None = None) -> int:
    """Sequential metric dimension: game value with both sides optimal.

    A bounded decision search over candidate bitsets that starts from the
    MAX-GAIN worst case (see ``_LabelGameEngine.game_value``); hard limit
    64 nodes.  With ``cap`` (None or >= 0), one test "resolvable within
    cap queries?" runs first and CapExceededError is raised when it fails,
    so the cap bounds the search work as well as the value.  Pass a
    precomputed ``dm`` of ``g``, as for ``md_greedy``, to reuse its
    all-pairs BFS and engine; a ``dm`` of another node count is a
    ValueError.
    """
    return _distances(g, dm)._engine.exact_value(cap)


def smd_maxgain_worstcase(g: Graph, cap: int | None = None) -> int:
    """Worst-case step count of the MAX-GAIN rule against any adversary.

    Full maximum over adversary answers (memoized tree walk), with player 1
    pinned to MAX-GAIN; hard limit 64 nodes, as for ``smd_exact`` (a
    larger graph is a ValueError).  The large-scale estimate counterpart is
    a single ``play_game`` against the greedy-max-cell adversary.
    """
    return distance_matrix(g)._engine.worst_value(cap)


def f_separator_exists(
    dm: DistanceMatrix, w_set, gamma: float, f_value: float
) -> tuple[bool, int | None]:
    """Does some query split node set W with no cell above |W|*gamma + f_value?

    Scores queries in index order, one block of the scoring kernel at a
    time, and returns the first witness as soon as a block holds one, or
    (False, None).
    """
    nodes = _node_indices(w_set, dm.n, "nodes in W", "node in W out of range")
    if nodes.size == 0:
        raise ValueError("W must be nonempty")
    engine = dm._engine
    bound = nodes.size * gamma + f_value
    for c0, c1 in _column_blocks(dm.n, nodes.size, engine.compact_table()[1]):
        fits = np.flatnonzero(engine.largest_cells(nodes, c0, c1) <= bound)
        if fits.size:
            return True, c0 + int(fits[0])
    return False, None
