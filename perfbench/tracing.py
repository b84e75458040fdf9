"""In-memory spans and the arithmetic over them.

A span is one timed call: name, start, end, the span that was open when it
started (its parent), and the item (sweep trial or exact instance) it
belongs to. Spans are kept in a list for the whole run and written out only
when the run ends. A span's self time is its duration minus the part of
that interval its children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

ITEM = "item"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    item: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; each thread keeps its own stack of open spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, item=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if item is None and parent is not None:
            item = parent.item
        with self._lock:
            span = Span(len(self.spans), name, self.clock(), None,
                        parent.id if parent else None, item)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span`` and any of its descendants still open on this thread."""
        stack = self._stack()
        now = self.clock()
        while stack:
            top = stack.pop()
            top.end = now
            if top is span:
                return
        raise RuntimeError(f"span {span.name!r} is not open on this thread")

    @contextmanager
    def span(self, name: str, item=None):
        span = self.open(name, item)
        try:
            yield span
        finally:
            self.close(span)

    def begin_item(self, item) -> Span:
        """Open an item span, first ending this thread's previous item span."""
        for span in reversed(self._stack()):
            if span.name == ITEM:
                self.close(span)
                break
        return self.open(ITEM, item)

    def traced(self, name: str, fn, annotate=None):
        """``fn`` wrapped in a span; ``annotate(result, *args, **kwargs)``
        returns counts stored on the span, computed after the span ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                span.attrs.update(annotate(result, *args, **kwargs))
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [asdict(s) | {"item": repr(s.item) if s.item is not None else None}
                for s in self.spans]


class Rebinder:
    """Sets module attributes and puts the originals back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def child_coverage(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span's interval covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: covered(children[s.id], s.start, s.end) for s in spans}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    cov = child_coverage(spans)
    return {s.id: s.duration - cov[s.id] for s in spans}


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += selfs[s.id]
    return dict(out)
