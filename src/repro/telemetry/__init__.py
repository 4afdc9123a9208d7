"""Telemetry: metrics registry, lifecycle tracing, exporters.

See ``docs/observability.md`` for the metric catalog and span naming
conventions.  Nothing is observed by default: the active registry is the
null recorder unless an :class:`ExperimentTelemetry` harness is activated
or a live one is installed with :func:`set_registry`.
"""

from repro.telemetry.export import snapshot
from repro.telemetry.experiment import ExperimentTelemetry, named_trace
from repro.telemetry.registry import (
    BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.telemetry.tracing import (
    TraceContext,
    current_trace,
    event,
    use_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "BUCKETS",
    "ExperimentTelemetry",
    "TraceContext",
    "current_trace",
    "event",
    "get_registry",
    "set_registry",
    "snapshot",
    "named_trace",
    "use_trace",
]
