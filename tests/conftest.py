"""Shared test helpers: small graph families and the acceptance summary."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from seqlocate import Graph, is_connected, sample_gnp

# pyproject.toml's pytest ``pythonpath`` puts src/ on this process's path;
# the tests that run ``python -m seqlocate.cli`` in a subprocess get it too,
# so the suite runs in a checkout where the package is not installed.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

ACCEPTANCE_RESULTS: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def reference_cells(labels: np.ndarray) -> list[dict[int, int]]:
    """Each query's cells as {label: bitset of the targets with that label},
    labels in order of their lowest target, by a loop over queries and
    targets.  The oracle for the engine's packed cell masks."""
    cells = []
    for row in labels:
        d: dict[int, int] = {}
        for t, lab in enumerate(map(int, row)):
            d[lab] = d.get(lab, 0) | (1 << t)
        cells.append(d)
    return cells


def reference_worst_value(cells: list[dict[int, int]], mask: int) -> int:
    """MAX-GAIN worst case over the ``reference_cells`` of a table: per
    mask, scan every query's cells for the smallest largest cell (lowest
    index on ties), then split on it."""

    def choice(m: int) -> tuple[int, int]:
        best_w = -1
        best_s = m.bit_count() + 1
        for w, query_cells in enumerate(cells):
            worst = 0
            for cm in query_cells.values():
                c = (m & cm).bit_count()
                if c > worst:
                    worst = c
            if worst < best_s:
                best_s = worst
                best_w = w
        return best_w, best_s

    def split(m: int, w: int) -> list[int] | None:
        out = []
        for cm in cells[w].values():
            cell = m & cm
            if cell == m:
                return None
            if cell:
                out.append(cell)
        return out

    memo: dict[int, int] = {}

    def walk(m: int) -> int:
        if m & (m - 1) == 0:
            return 0
        cached = memo.get(m)
        if cached is not None:
            return cached
        w, score = choice(m)
        if score >= m.bit_count():
            raise ValueError("candidate set admits no splitting query")
        result = 1 + max(walk(c) for c in split(m, w))
        memo[m] = result
        return result

    return walk(mask)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Center is node 0, leaves 1..leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def criterion_1_graphs():
    """The criterion-1 corpus, (label, graph) in order: the path, cycle,
    complete and star families up to 8 nodes, then 100 connected
    G(n, 0.5) samples for each n in 4..8."""
    for n in range(2, 9):
        yield f"P{n}", path_graph(n)
    for n in range(3, 9):
        yield f"C{n}", cycle_graph(n)
    for n in range(2, 9):
        yield f"K{n}", complete_graph(n)
    for m in range(2, 9):
        yield f"K1_{m}", star_graph(m)
    for n in range(4, 9):
        for k in range(100):
            seed = n * 10_000 + k
            while True:
                g = sample_gnp(n, 0.5, seed)
                if is_connected(g):
                    break
                seed += 1_000_000
            yield f"rand(n={n},k={k})", g
