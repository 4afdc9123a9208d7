"""Tracing tests: ambient contextvar plumbing and span records."""

import pytest

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
    assert trace.spans[0].duration == 0.0


def test_use_trace_none_is_harmless():
    outer = TraceContext("outer")
    with use_trace(outer):
        with use_trace(None):
            assert current_trace() is None
            assert event("dropped") is None
        assert current_trace() is outer
    assert [span.name for span in outer.spans] == []


def test_span_times_and_records_error():
    trace = TraceContext("res")
    with trace.span("work", phase="one") as handle:
        handle.set(extra=1)
    with pytest.raises(RuntimeError):
        with trace.span("failing"):
            raise RuntimeError("boom")
    work, failing = trace.spans
    assert work.duration is not None and work.duration >= 0.0
    assert work.attrs == {"phase": "one", "extra": 1}
    assert failing.attrs["error"] == "RuntimeError"
    assert failing.end is not None


def test_trace_ids_are_unique_and_shared_by_spans():
    first, second = TraceContext("a"), TraceContext("b")
    assert first.trace_id != second.trace_id
    first.event("x")
    first.event("y")
    assert {s.trace_id for s in first.spans} == {first.trace_id}


def test_to_dict_shape():
    trace = TraceContext("res", trace_id="trace-fixed")
    trace.event("step", admitted=True)
    dumped = trace.to_dict()
    assert dumped["trace_id"] == "trace-fixed"
    assert dumped["spans"][0]["name"] == "step"
    assert dumped["spans"][0]["attrs"] == {"admitted": True}
    assert dumped["spans"][0]["duration"] == 0.0
