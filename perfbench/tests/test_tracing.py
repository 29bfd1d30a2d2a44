import types

import numpy as np
import pytest

import tracing
from feddrift import ParamVector
from tracing import Span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: [1, 6] is covered once
        Span("a.child", 2.0, 3.0, 1, 0),  # nested in a, not a child of parent
        Span("late", 8.0, 12.0, 0, 0),  # clipped to the parent's end
        Span("other-run", 0.0, 1.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.0])


def test_self_time_of_identical_children_counts_them_once():
    spans = [Span("p", 0.0, 4.0, None, 0), Span("c", 1.0, 3.0, 0, 0), Span("c", 1.0, 3.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_wrap_records_parents_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    orig_inner, orig_outer = mod.inner, mod.outer
    t = tracing.Tracer()
    t.wrap(mod, "inner", "inner", after=lambda a, r: t.count("calls", a[0]))
    t.wrap(mod, "outer", "outer")
    t.run_id = 3
    assert mod.outer(4) == 10
    t.close()
    assert mod.inner is orig_inner and mod.outer is orig_outer
    first, second = t.spans
    assert (first.name, first.parent, first.run_id) == ("outer", None, 3)
    assert (second.name, second.parent) == ("inner", 0)
    assert t.counts[(3, "calls")] == 4


def test_wrap_closes_the_span_when_the_layer_raises():
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    t = tracing.Tracer()
    t.wrap(mod, "f", "f")
    with pytest.raises(ZeroDivisionError):
        mod.f()
    t.close()
    assert t.spans[0].end >= t.spans[0].start and not t._stack


def test_layer_metrics_name_every_layer_even_when_idle():
    out = tracing.Tracer().layer_metrics(0)
    assert tuple(out) == tracing.LAYER_METRICS
    assert all(v == 0 for v in out.values())


def test_unique_nbytes_counts_shared_buffers_once():
    shared = ParamVector(np.zeros(10))
    objs = [types.SimpleNamespace(a=shared, b=shared, c=ParamVector(np.ones(5)), n=3)]
    view = np.arange(8.0)
    assert tracing.unique_nbytes(objs) == 15 * 8
    assert tracing.unique_nbytes([view, view[2:]]) == 8 * 8
