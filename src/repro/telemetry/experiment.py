"""Experiment-scoped telemetry harness.

:class:`ExperimentTelemetry` bundles a live :class:`MetricsRegistry` plus
any number of reservation traces, installs itself as the process-wide
registry for the duration of a scenario, and serializes everything to a
single JSON dump that ``tools/report_experiment.py`` turns into a
``results/`` dashboard.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

from repro.telemetry.export import snapshot
from repro.telemetry.registry import MetricsRegistry, set_registry
from repro.telemetry.tracing import TraceContext

__all__ = ["ExperimentTelemetry"]


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


class ExperimentTelemetry:
    """Collects metrics + traces for one scenario run.

    Usage::

        telemetry = ExperimentTelemetry("auction_experiment")
        with telemetry.activate():
            ...  # build controllers/ledgers inside: they bind instruments
        telemetry.write("results/auction_telemetry.json")
    """

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.registry = MetricsRegistry()
        self.traces: list[TraceContext] = []
        self.extra: dict[str, Any] = {}

    def activate(self) -> "_ActiveTelemetry":
        return _ActiveTelemetry(self.registry)

    def trace(self, name: str) -> TraceContext:
        """Create (and retain) a correlation-ID trace for one reservation."""
        trace = TraceContext(name)
        self.traces.append(trace)
        return trace

    def annotate(self, **fields: Any) -> None:
        """Attach scenario-level result fields to the dump."""
        self.extra.update(fields)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "metrics": snapshot(self.registry),
            "traces": [trace.to_dict() for trace in self.traces],
            "extra": dict(self.extra),
        }

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        """Dump the full telemetry state as JSON; returns the path.

        A non-finite float (the ``inf`` an uncoverable window is priced
        at) is written as ``null``; :meth:`to_dict` keeps it.
        """
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(
            _finite(self.to_dict()), indent=2, sort_keys=True, allow_nan=False
        )
        target.write_text(text)
        return target


class _ActiveTelemetry:
    """Context manager installing/restoring the process-wide registry."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> None:
        set_registry(self._previous)
