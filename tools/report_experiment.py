#!/usr/bin/env python3
"""Turn a telemetry dump into a ``results/`` dashboard.

Two modes:

* ``--input DUMP.json`` — render a dashboard from an existing
  :meth:`ExperimentTelemetry.write` dump.
* ``--run SCENARIO`` — run one of the netsim experiments with telemetry
  enabled, write the dump, then render the dashboard.

The dashboard is plain text: aligned tables (counters, gauges, histogram
quantiles) plus ASCII sparklines for histogram bucket shapes and trace
span timelines, so experiment output stays reviewable in a terminal or a
CI artifact without plotting dependencies.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.analysis import render_table, sparkline
from repro.netsim.scenarios import (
    auction_experiment,
    contention_experiment,
    flex_market_experiment,
    linear_path,
    path_contention_experiment,
    reclamation_experiment,
)
from repro.telemetry import ExperimentTelemetry
from repro.telemetry.registry import Histogram

# --run's choices: name -> run it over (topology, path) under ``telemetry``.
RUNNERS = {
    "contention": lambda chain, duration, buyers, telemetry: contention_experiment(
        *chain, num_buyers=buyers, duration=duration, telemetry=telemetry
    ),
    # Builds its own chain topology; num_ases is the only shape knob.
    "flex_market": lambda chain, duration, buyers, telemetry: flex_market_experiment(
        num_ases=3, duration=duration, telemetry=telemetry
    ),
    "auction": lambda chain, duration, buyers, telemetry: auction_experiment(
        *chain, num_buyers=buyers, duration=duration, telemetry=telemetry
    ),
    "path": lambda chain, duration, buyers, telemetry: path_contention_experiment(
        *chain, num_buyers=buyers, telemetry=telemetry
    ),
    "reclamation": lambda chain, duration, buyers, telemetry: reclamation_experiment(
        *chain, duration=duration, telemetry=telemetry
    ),
}
SCENARIOS = tuple(RUNNERS)


def _labels_str(labelnames: list[str], labels: list[str]) -> str:
    if not labelnames:
        return "-"
    return ",".join(f"{n}={v}" for n, v in zip(labelnames, labels))


def _rebuild_histogram(buckets: list[float], child: dict[str, Any]) -> Histogram:
    histogram = Histogram(np.asarray(buckets, dtype=np.float64))
    histogram.counts[:] = np.asarray(child["counts"], dtype=np.int64)
    histogram.sum = child["sum"]
    histogram.count = child["count"]
    return histogram


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _metrics_sections(metrics: list[dict[str, Any]]) -> list[str]:
    sections: list[str] = []
    for kind, title in (("counter", "Counters"), ("gauge", "Gauges")):
        rows = [
            [family["name"], _labels_str(family["labelnames"], child["labels"]), _fmt(child["value"])]
            for family in metrics
            if family["kind"] == kind
            for child in family["children"]
        ]
        if rows:
            sections.append(render_table(["metric", "labels", "value"], rows, title=f"## {title}"))
    histogram_rows = []
    for family in metrics:
        if family["kind"] != "histogram":
            continue
        for child in family["children"]:
            histogram = _rebuild_histogram(family["buckets"], child)
            histogram_rows.append(
                [
                    family["name"],
                    _labels_str(family["labelnames"], child["labels"]),
                    str(histogram.count),
                    _fmt(histogram.quantile(0.5)),
                    _fmt(histogram.quantile(0.99)),
                    sparkline([float(c) for c in histogram.counts], width=24),
                ]
            )
    if histogram_rows:
        sections.append(
            render_table(
                ["histogram", "labels", "count", "p50", "p99", "buckets"],
                histogram_rows,
                title="## Histograms",
            )
        )
    return sections


def _trace_sections(traces: list[dict[str, Any]]) -> list[str]:
    sections: list[str] = []
    for trace in traces:
        spans = trace.get("spans", [])
        if not spans:
            continue
        origin = min(span["start"] for span in spans)
        rows = []
        for span in spans:
            attrs = ", ".join(f"{k}={v}" for k, v in span.get("attrs", {}).items())
            if len(attrs) > 72:
                attrs = attrs[:69] + "..."
            duration = span.get("duration")
            # Zero-duration spans are lifecycle events (path.commit,
            # path_bid.settled, ...): mark them so the timed protocol
            # phases stand out in the timeline.
            rows.append(
                [
                    f"+{span['start'] - origin:.4f}s",
                    "·" if not duration else f"{duration * 1e3:.2f}ms",
                    span["name"],
                    attrs,
                ]
            )
        timeline = sparkline([span["start"] - origin for span in spans], width=48)
        header = (
            f"## Trace {trace.get('trace_id', '?')} ({trace.get('name', '')}) "
            f"— {len(spans)} spans   {timeline}"
        )
        sections.append(
            render_table(["offset", "dur", "span", "attributes"], rows, title=header)
        )
    return sections


def _extra_section(extra: dict[str, Any]) -> list[str]:
    if not extra:
        return []
    return ["## Scenario results\n" + json.dumps(extra, indent=2, sort_keys=True)]


def render_dashboard(dump: dict[str, Any]) -> str:
    sections = [f"# Experiment dashboard: {dump.get('scenario', 'unknown')}"]
    sections.extend(_metrics_sections(dump.get("metrics", [])))
    sections.extend(_trace_sections(dump.get("traces", [])))
    sections.extend(_extra_section(dump.get("extra", {})))
    return "\n\n".join(sections) + "\n"


def _run_scenario(name: str, duration: float, buyers: int) -> ExperimentTelemetry:
    telemetry = ExperimentTelemetry(f"{name}_experiment")
    RUNNERS[name](linear_path(3), duration, buyers, telemetry)
    return telemetry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=pathlib.Path, help="existing telemetry dump (JSON)")
    source.add_argument("--run", choices=SCENARIOS, help="run a netsim scenario with telemetry")
    parser.add_argument("--out", type=pathlib.Path, default=REPO_ROOT / "results",
                        help="output directory (default: results/)")
    parser.add_argument("--duration", type=float, default=1.0, help="simulated seconds for --run")
    parser.add_argument("--buyers", type=int, default=6, help="buyers/probes for --run")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    if args.run:
        telemetry = _run_scenario(args.run, args.duration, args.buyers)
        dump_path = args.out / f"{args.run}_telemetry.json"
        telemetry.write(dump_path)
        print(f"telemetry dump: {dump_path}")
        dump = telemetry.to_dict()
        stem = args.run
    else:
        dump = json.loads(args.input.read_text())
        stem = args.input.stem.removesuffix("_telemetry")

    dashboard = render_dashboard(dump)
    report_path = args.out / f"{stem}_dashboard.txt"
    report_path.write_text(dashboard)
    print(f"dashboard: {report_path}")
    print()
    print(dashboard)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
