"""Tracing tests: ambient contextvar plumbing and span records."""

from repro.telemetry import (
    NULL_REGISTRY,
    ExperimentTelemetry,
    get_registry,
    named_trace,
)
from repro.telemetry.tracing import TraceContext, current_trace, event, use_trace


def test_no_ambient_trace_is_free():
    assert current_trace() is None
    assert event("anything") is None


def test_use_trace_installs_and_restores():
    trace = TraceContext("res")
    with use_trace(trace) as installed:
        assert installed is trace
        assert current_trace() is trace
        event("step", key="value")
    assert current_trace() is None
    assert [span.name for span in trace.spans] == ["step"]
    assert trace.spans[0].attrs == {"key": "value"}


def test_use_trace_none_is_harmless():
    outer = TraceContext("outer")
    with use_trace(outer):
        with use_trace(None):
            assert current_trace() is None
            assert event("dropped") is None
        assert current_trace() is outer
    assert [span.name for span in outer.spans] == []


def test_trace_ids_are_unique_and_shared_by_spans():
    first, second = TraceContext("a"), TraceContext("b")
    assert first.trace_id != second.trace_id
    first.event("x")
    first.event("y")
    assert {s.trace_id for s in first.spans} == {first.trace_id}


def test_to_dict_shape():
    trace = TraceContext("res")
    trace.event("step", admitted=True)
    dumped = trace.to_dict()
    assert dumped["trace_id"] == trace.trace_id
    assert dumped["spans"][0]["name"] == "step"
    assert dumped["spans"][0]["attrs"] == {"admitted": True}
    # every span is an instant: nothing in the dump is timed
    assert set(dumped["spans"][0]) == {"trace_id", "name", "start", "attrs"}


def test_named_trace_names_a_trace_only_on_the_active_harness():
    with named_trace("unobserved") as trace:
        assert trace is None and event("dropped") is None
    outer, inner = ExperimentTelemetry("outer"), ExperimentTelemetry("inner")
    with outer.activate():
        with inner.activate() as registry:
            assert get_registry() is registry is inner.registry
            with named_trace("nested") as trace:
                event("step")
        assert get_registry() is outer.registry
        with named_trace("after"):
            event("step")
    assert get_registry() is NULL_REGISTRY
    assert [t.name for t in inner.traces] == ["nested"]
    assert [t.name for t in outer.traces] == ["after"]
    assert [span.name for span in trace.spans] == ["step"]
