"""The block scoring kernel against the per-query loops it replaced.

``reference_greedy_refinement`` and ``reference_best_reducer`` are the
loops that scored one query at a time before greedy and MAX-GAIN scoring
moved to one numpy pass per block of queries.  The kernel must choose the
same queries, play the same MAX-GAIN transcripts and raise the same errors,
tie rules included, whatever the block size.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import cycle_graph, path_graph

from seqlocate import (
    AdversaryPolicy,
    Player1Policy,
    distance_matrix,
    is_connected,
    localization,
    sample_bernoulli,
    sample_gnp,
)
from seqlocate.game import _LabelGameEngine, _play_on_labels
from seqlocate.localization import _greedy_refinement


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
    transcript = _play_on_labels(labels, Player1Policy.max_gain(), adversary, None)
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
]
TABLES = GNP + PATHS_CYCLES + MATRICES + NON_SEPARABLE

# Default budget, one query per block, and a budget that splits queries
# into uneven blocks, so ties across block boundaries are exercised.
BUDGETS = [None, 1, 257]


@pytest.fixture(params=BUDGETS, ids=lambda b: f"budget-{b or 'default'}")
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(localization, "_BLOCK_ELEMENTS", request.param)


def test_corpus_covers_every_density():
    ids = [p.id for p in GNP]
    for p in (0.05, 0.1, 0.3, 0.8):
        assert sum(f"-{p}-" in i for i in ids) >= 6


def test_corpus_has_both_matrix_outcomes():
    results = [outcome(reference_greedy_refinement, p.values[0])[0] for p in MATRICES]
    assert "ok" in results and "error" in results


@pytest.mark.parametrize("labels", TABLES)
def test_greedy_refinement_matches_reference(labels, budget):
    assert outcome(_greedy_refinement, labels) == outcome(reference_greedy_refinement, labels)


@pytest.mark.parametrize("labels", NON_SEPARABLE)
def test_non_separable_table_raises(labels):
    with pytest.raises(ValueError, match="not separable"):
        _greedy_refinement(labels)


def test_empty_target_set_needs_no_query():
    assert _greedy_refinement(np.zeros((2, 0), dtype=np.int64)) == []


@pytest.mark.parametrize("labels", GNP + PATHS_CYCLES + MATRICES)
def test_maxgain_transcript_matches_reference(labels, budget):
    nt = labels.shape[1]
    for target in (None, 0, nt // 2, nt - 1):
        assert outcome(played, labels, target) == outcome(reference_maxgain_play, labels, target)


@pytest.mark.parametrize("labels", GNP[::3] + PATHS_CYCLES + MATRICES[::3])
def test_best_reducer_matches_reference_on_subsets(labels, budget):
    nq, nt = labels.shape
    engine = _LabelGameEngine(labels)
    rng = np.random.default_rng(nq * 7919 + nt)
    for _ in range(10):
        t = np.sort(rng.choice(nt, size=int(rng.integers(2, nt + 1)), replace=False))
        pool = rng.random(nq) < rng.random()
        expected = outcome(reference_best_reducer, labels, t, np.flatnonzero(pool))
        assert outcome(engine.best_reducer, t, pool) == expected


def test_best_reducer_empty_pool():
    engine = _LabelGameEngine(np.array([[0, 1, 1], [1, 0, 1]]))
    with pytest.raises(ValueError, match="empty query pool"):
        engine.best_reducer(np.arange(3), np.zeros(2, dtype=bool))


def test_negative_labels_rejected_like_reference():
    labels = np.array([[0, -1, 1], [1, 0, 0]])
    assert outcome(reference_greedy_refinement, labels)[0] == "error"
    with pytest.raises(ValueError, match="nonnegative"):
        _greedy_refinement(labels)
    assert outcome(reference_best_reducer, labels, np.arange(3), [0, 1])[0] == "error"
    with pytest.raises(ValueError, match="nonnegative"):
        _LabelGameEngine(labels).best_reducer(np.arange(3), np.ones(2, dtype=bool))
