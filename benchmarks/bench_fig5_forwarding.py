"""Figure 5: border-router throughput vs CPU cores, per payload size.

Paper-calibrated curves (Table 3 per-packet costs through the multicore
line-rate model) regenerate the published figure: 160 Gbps with 4 cores at
1500 B payloads, ~32 cores for 100 B, SCION above Hummingbird until both
saturate.  The measured-Python series applies the same model to our
microbenchmarked per-packet costs.
"""

import argparse

import pytest

try:
    from benchmarks.conftest import bench_result, measure_op, report, write_bench_json
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import bench_result, measure_op, report, write_bench_json

from repro.analysis import line_plot, render_comparison
from repro.perfmodel import papertimings as paper
from repro.perfmodel.measure import measure_router
from repro.perfmodel.scaling import (
    FIG5_CORES,
    FIG5_PAYLOADS,
    ThroughputModel,
    fig5_forwarding_series,
    wire_bytes,
)


def _fig5_report_impl():
    series = fig5_forwarding_series()
    rows = []
    for payload in FIG5_PAYLOADS:
        hb = dict(series[("hummingbird", payload)])
        scion = dict(series[("scion", payload)])
        for cores in FIG5_CORES:
            rows.append(
                [payload, cores, f"{hb[cores]:.1f}", f"{scion[cores]:.1f}"]
            )
    table = render_comparison(
        ["payload B", "cores", "Hummingbird Gbps", "SCION Gbps"],
        rows,
        title="Figure 5 — forwarding throughput (paper-calibrated model)",
        note="line rate 160 Gbps; solid=Hummingbird (308 ns/pkt), "
        "dashed=SCION (123 ns/pkt).",
    )
    plot = line_plot(
        {
            f"hummingbird {p}B": series[("hummingbird", p)]
            for p in (100, 500, 1500)
        }
        | {f"scion {p}B": series[("scion", p)] for p in (100, 1500)},
        title="Fig 5: throughput [Gbps] vs cores",
        x_label="cores",
        y_label="Gbps",
    )
    report("fig5_forwarding", table + "\n\n" + plot)

    # Headline shape assertions from §7.2.
    hb_model = ThroughputModel(paper.HUMMINGBIRD_FORWARD_NS)
    assert hb_model.throughput_gbps(4, wire_bytes(4, 1500, True)) == pytest.approx(160.0)
    assert 24 <= hb_model.cores_for_line_rate(wire_bytes(4, 100, True)) <= 40


def _fig5_measured_substrate_report_impl():
    measured = measure_router(packets=600)
    series = fig5_forwarding_series(
        scion_ns=measured.scion_process_ns,
        hummingbird_ns=measured.hummingbird_process_ns,
    )
    rows = []
    for payload in (500, 1500):
        hb = dict(series[("hummingbird", payload)])
        scion = dict(series[("scion", payload)])
        for cores in (1, 8, 32):
            rows.append([payload, cores, f"{hb[cores]:.3f}", f"{scion[cores]:.3f}"])
    text = render_comparison(
        ["payload B", "cores", "Hummingbird Gbps", "SCION Gbps"],
        rows,
        title="Figure 5 (measured substrate) — same model fed with our "
        "pure-Python per-packet costs",
        note=f"per-packet: SCION {measured.scion_process_ns:.0f} ns, "
        f"Hummingbird {measured.hummingbird_process_ns:.0f} ns "
        f"({measured.hummingbird_process_ns / measured.scion_process_ns:.1f}x; paper "
        f"{paper.HUMMINGBIRD_FORWARD_NS / paper.SCION_FORWARD_NS:.1f}x); the shape "
        "(SCION > Hummingbird, larger payloads saturate earlier) is identical.",
    )
    report("fig5_forwarding_measured", text)


def test_bench_throughput_model(benchmark):
    model = ThroughputModel(paper.HUMMINGBIRD_FORWARD_NS)
    benchmark(lambda: model.throughput_gbps(16, wire_bytes(4, 500, True)))


def test_fig5_report(benchmark):
    """Regenerate the report once (timed as a single benchmark round)."""
    benchmark.pedantic(_fig5_report_impl, rounds=1, iterations=1)


def test_fig5_measured_substrate_report(benchmark):
    """Regenerate the report once (timed as a single benchmark round)."""
    benchmark.pedantic(_fig5_measured_substrate_report_impl, rounds=1, iterations=1)


def main() -> None:
    from repro.perfmodel.measure import build_fixture

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--payload", type=int, default=500, help="payload bytes")
    parser.add_argument("--samples", type=int, default=300, help="packets to time")
    parser.add_argument("--json", metavar="PATH",
                        help="write machine-readable results to PATH")
    args = parser.parse_args()
    fixture = build_fixture(payload=args.payload)
    results = []
    for name, source, router in (
        ("fig5_hummingbird_forward", fixture.hb_source, fixture.hb_router),
        ("fig5_scion_forward", fixture.scion_source, fixture.scion_router),
    ):
        payload = bytes(args.payload)
        packets = iter(
            [source.build_packet(payload) for _ in range(args.samples + 20)]
        )
        stats = measure_op(
            lambda: router.process(next(packets), 0), samples=args.samples, warmup=10
        )
        results.append(bench_result(name, {"payload": args.payload}, **stats))
        print(f"{name}: p50 {stats['p50'] * 1e9:.0f} ns/pkt")
    write_bench_json(args.json, results)


if __name__ == "__main__":
    main()
