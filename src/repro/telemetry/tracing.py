"""Correlation-ID tracing for a reservation's lifecycle.

A :class:`TraceContext` carries one correlation id and accumulates
zero-duration :class:`Span` events as the reservation moves through the
system::

    tx submit -> contract event -> admission decision -> auction clearing
              -> redeem -> policer verdict

Instrumented modules never take a trace argument — they call the
module-level :func:`event` helper or :func:`current_trace`, which look up
the trace installed in the current :mod:`contextvars` context.  When no
trace is installed (the overwhelmingly common case) :func:`event` returns
``None``, so the hot path pays a contextvar read and nothing else.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Span",
    "TraceContext",
    "current_trace",
    "event",
    "use_trace",
]

_trace_ids = itertools.count(1)


@dataclass
class Span:
    """One instantaneous step of a trace."""

    trace_id: str
    name: str
    start: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "attrs": dict(self.attrs),
        }


class TraceContext:
    """A correlation id plus the ordered spans recorded under it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.trace_id = f"trace-{next(_trace_ids):06d}"
        self.spans: list[Span] = []

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span (a point-in-time lifecycle marker)."""
        record = Span(self.trace_id, name, time.perf_counter(), dict(attrs))
        self.spans.append(record)
        return record

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "spans": [s.to_dict() for s in self.spans],
        }


_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace", default=None
)


def current_trace() -> TraceContext | None:
    return _current.get()


class use_trace:
    """Install ``trace`` as the ambient trace for a ``with`` block."""

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: TraceContext | None) -> None:
        self._trace = trace

    def __enter__(self) -> TraceContext | None:
        self._token = _current.set(self._trace)
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> None:
        _current.reset(self._token)


def event(name: str, **attrs: Any) -> Span | None:
    """Record an instantaneous event on the ambient trace, if any."""
    trace = _current.get()
    if trace is None:
        return None
    return trace.event(name, **attrs)
