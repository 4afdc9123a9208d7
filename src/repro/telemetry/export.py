"""Exporter: a registry as JSON-safe rows, the form telemetry dumps carry.

Every family row carries its schema (kind, label names, bucket bounds)
beside the values, so a dump reads without the code that wrote it.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.registry import BUCKETS, MetricsRegistry

__all__ = ["snapshot"]


def snapshot(registry: MetricsRegistry) -> list[dict[str, Any]]:
    """One JSON-safe dict per metric family, children inlined."""
    rows: list[dict[str, Any]] = []
    for family in registry.families():
        row: dict[str, Any] = {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "labelnames": list(family.labelnames),
        }
        if family.kind == "histogram":
            row["buckets"] = list(BUCKETS)
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
