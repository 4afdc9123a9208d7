"""Experiment-scoped telemetry harness.

:class:`ExperimentTelemetry` bundles a live :class:`MetricsRegistry` plus
any number of reservation traces.  The caller decides whether a run is
observed: wrapping it in ``with telemetry.activate():`` installs the
harness's registry as the process-wide one and marks the harness active, so
whatever the run emits lands in it; the experiment itself names its traces
through :func:`named_trace` and never asks whether anyone is watching.
:meth:`ExperimentTelemetry.write` serializes the collection plus the run's
result to a single JSON dump that ``tools/report_experiment.py`` turns into
a ``results/`` dashboard.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from typing import Any

from repro.telemetry.export import snapshot
from repro.telemetry.registry import MetricsRegistry, set_registry
from repro.telemetry.tracing import TraceContext, use_trace

__all__ = ["ExperimentTelemetry", "named_trace"]

#: The harness whose ``activate()`` block is innermost, if any.
_active: ExperimentTelemetry | None = None


def _finite(value: Any) -> Any:
    """``value`` with every non-finite float replaced by ``None``.

    JSON has no token for them (RFC 8259); ``json.dumps`` would write the
    bare words ``Infinity`` / ``NaN``, which strict parsers reject.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def named_trace(name: str) -> use_trace:
    """A ``with`` block under a fresh trace ``name`` of the active harness;
    with no harness active, under no trace.  ``as`` binds the trace (or
    ``None``)."""
    return use_trace(_active.trace(name) if _active is not None else None)


class ExperimentTelemetry:
    """Collects metrics + traces for one scenario run.

    Usage::

        telemetry = ExperimentTelemetry("auction_experiment")
        with telemetry.activate():
            result = auction_experiment(topology, path)
        telemetry.write("results/auction_telemetry.json", result)
    """

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.registry = MetricsRegistry()
        self.traces: list[TraceContext] = []

    def activate(self) -> "_ActiveTelemetry":
        return _ActiveTelemetry(self)

    def trace(self, name: str) -> TraceContext:
        """Create (and retain) a correlation-ID trace for one reservation."""
        trace = TraceContext(name)
        self.traces.append(trace)
        return trace

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "metrics": snapshot(self.registry),
            "traces": [trace.to_dict() for trace in self.traces],
        }

    def write(self, path: str | pathlib.Path, result: Any) -> pathlib.Path:
        """Dump :meth:`to_dict` plus the run's ``result`` (a dataclass, field
        by field) as JSON; returns the path.

        A non-finite float (the ``inf`` an uncoverable window is priced
        at) is written as ``null``; the result object keeps it.
        """
        dump = {**self.to_dict(), "result": dataclasses.asdict(result)}
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(_finite(dump), indent=2, sort_keys=True, allow_nan=False)
        )
        return target


class _ActiveTelemetry:
    """Context manager installing the harness (and its registry) as the
    active one and restoring the previous pair on exit."""

    __slots__ = ("_harness", "_previous")

    def __init__(self, harness: ExperimentTelemetry) -> None:
        self._harness = harness

    def __enter__(self) -> MetricsRegistry:
        global _active
        self._previous = _active, set_registry(self._harness.registry)
        _active = self._harness
        return self._harness.registry

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        _active, registry = self._previous
        set_registry(registry)
