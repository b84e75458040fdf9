import types

import pytest

from perfbench.tracing import ITEM, Rebinder, Span, Tracer, busy_by_name, covered, self_times


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "a", 0.0, 10.0, None),
        Span(1, "b", 1.0, 4.0, 0),
        Span(2, "c", 3.0, 6.0, 0),  # overlaps b, as two threads' children can
        Span(3, "d", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_nested_spans_from_tracer():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.open("b")
    tracer.close(a)  # also ends the second b, still open
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("a", 0, 10, None), ("b", 1, 3, 0), ("b", 4, 10, 0)]
    assert busy_by_name(tracer.spans) == pytest.approx({"a": 2, "b": 8})


def test_begin_item_ends_previous_item_and_tags_children():
    tracer = Tracer(clock=FakeClock(range(100)))
    root = tracer.open("root")
    tracer.begin_item("t0")
    child = tracer.open("work")
    tracer.close(child)
    tracer.begin_item("t1")
    tracer.close(root)
    items = [s for s in tracer.spans if s.name == ITEM]
    assert [(s.item, s.parent) for s in items] == [("t0", root.id), ("t1", root.id)]
    assert child.item == "t0" and child.parent == items[0].id
    assert items[0].end <= items[1].start


def test_traced_rebinding_records_and_restores():
    module = types.SimpleNamespace(f=lambda x: x * 2)
    original = module.f
    tracer = Tracer()
    rb = Rebinder()
    rb.set(module, "f", tracer.traced("layer.f", module.f, lambda r, x: {"out": r}))
    assert module.f(3) == 6
    rb.restore()
    assert module.f is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("layer.f", {"out": 6})]
