"""Exporters: Prometheus text format and JSON-lines snapshots.

``to_jsonl`` / ``load_jsonl`` round-trip exactly: every family row carries
enough schema (kind, label names, bucket bounds) to rebuild an equivalent
registry, which the telemetry test suite checks property-style.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.registry import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    NullRegistry,
)

__all__ = ["snapshot", "to_jsonl", "load_jsonl", "to_prometheus"]


def snapshot(registry: MetricsRegistry | NullRegistry) -> list[dict[str, Any]]:
    """One JSON-safe dict per metric family, children inlined."""
    rows: list[dict[str, Any]] = []
    for family in registry.families():
        row: dict[str, Any] = {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "labelnames": list(family.labelnames),
        }
        if isinstance(family, HistogramFamily):
            row["buckets"] = list(family.bounds)
            row["children"] = [
                {
                    "labels": list(labels),
                    "counts": list(child.counts),
                    "sum": child.sum,
                    "count": child.count,
                }
                for labels, child in family.items()
            ]
        else:
            row["children"] = [
                {"labels": list(labels), "value": child.value}
                for labels, child in family.items()
            ]
        rows.append(row)
    return rows


def to_jsonl(registry: MetricsRegistry | NullRegistry) -> str:
    """Serialize the registry as one JSON object per line."""
    return "\n".join(json.dumps(row, sort_keys=True) for row in snapshot(registry))


def load_jsonl(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`to_jsonl` output (exact round-trip)."""
    registry = MetricsRegistry()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        kind = row["kind"]
        labelnames = tuple(row["labelnames"])
        if kind == "counter":
            family = registry.counter(row["name"], row.get("help", ""), labelnames)
            for child_row in row["children"]:
                family.labels(*child_row["labels"]).value = child_row["value"]
        elif kind == "gauge":
            family = registry.gauge(row["name"], row.get("help", ""), labelnames)
            for child_row in row["children"]:
                family.labels(*child_row["labels"]).value = child_row["value"]
        elif kind == "histogram":
            family = registry.histogram(
                row["name"], row.get("help", ""), labelnames, buckets=row["buckets"]
            )
            for child_row in row["children"]:
                child = family.labels(*child_row["labels"])
                for index, count in enumerate(child_row["counts"]):
                    child.counts[index] = count
                child.sum = child_row["sum"]
                child.count = child_row["count"]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown metric kind {kind!r}")
    return registry


def _label_str(labelnames, labels) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(labelnames, labels)
    )
    return "{" + pairs + "}"


def _merge_label_str(labelnames, labels, extra_name: str, extra_value: str) -> str:
    pairs = [f'{name}="{value}"' for name, value in zip(labelnames, labels)]
    pairs.append(f'{extra_name}="{extra_value}"')
    return "{" + ",".join(pairs) + "}"


def to_prometheus(registry: MetricsRegistry | NullRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if isinstance(family, (CounterFamily, GaugeFamily)):
            for labels, child in family.items():
                label_str = _label_str(family.labelnames, labels)
                lines.append(f"{family.name}{label_str} {child.value}")
        elif isinstance(family, HistogramFamily):
            for labels, child in family.items():
                cumulative = 0
                for bound, count in zip(family.bounds, child.counts):
                    cumulative += count
                    label_str = _merge_label_str(
                        family.labelnames, labels, "le", repr(bound)
                    )
                    lines.append(f"{family.name}_bucket{label_str} {cumulative}")
                label_str = _merge_label_str(family.labelnames, labels, "le", "+Inf")
                lines.append(f"{family.name}_bucket{label_str} {child.count}")
                base = _label_str(family.labelnames, labels)
                lines.append(f"{family.name}_sum{base} {child.sum}")
                lines.append(f"{family.name}_count{base} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")
