"""Exporter tests: a registry's snapshot rows carry schema and values."""

import json

from repro.telemetry import BUCKETS, MetricsRegistry
from repro.telemetry.export import snapshot


def test_snapshot_rows_carry_schema_and_values():
    registry = MetricsRegistry()
    registry.counter("reqs_total", "Requests.", ("code",)).labels("200").inc(3)
    hist = registry.histogram("lat_seconds", "Latency.")
    for value in (0.0, 0.5, 99.0):
        hist.labels().observe(value)
    rows = {row["name"]: row for row in snapshot(registry)}
    assert rows["reqs_total"] == {
        "name": "reqs_total", "kind": "counter", "help": "Requests.",
        "labelnames": ["code"], "children": [{"labels": ["200"], "value": 3.0}],
    }
    (child,) = rows["lat_seconds"]["children"]
    assert rows["lat_seconds"]["buckets"] == list(BUCKETS)
    assert (child["count"], child["sum"]) == (3, 99.5)
    assert child["counts"][0] == child["counts"][-1] == 1 and sum(child["counts"]) == 3
    assert json.loads(json.dumps(rows)) == rows


def test_empty_registry_exports_empty():
    assert snapshot(MetricsRegistry()) == []
