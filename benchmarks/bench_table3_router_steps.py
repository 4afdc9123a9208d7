"""Table 3: fine-grained border-router processing timings.

Prints the paper's per-step DPDK timings next to our measured pure-Python
costs for the same operations, plus full-pipeline packet processing times
for SCION vs Hummingbird.  The Python/DPDK ratio is the calibration factor
used to justify feeding the paper's timings into the Fig. 5 model.

The steps are timed as the router runs them — hop-field MAC and A_i under
PRFs the router holds, the flyover MAC under a PRF keyed with A_i per packet
("AES-extend") — so the rows are disjoint and their sum is printed against
the measured hop.

Run:  PYTHONPATH=src python benchmarks/bench_table3_router_steps.py [--smoke]
"""

import argparse

import pytest

try:
    from benchmarks.conftest import bench_result, measure_op, report, write_bench_json
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import bench_result, measure_op, report, write_bench_json

from repro.analysis import render_comparison
from repro.perfmodel import papertimings as paper
from repro.perfmodel.measure import build_fixture, measure_router


def _table3_report_impl(packets: int = 800):
    measured = measure_router(packets=packets)
    rows = []
    for name, paper_ns in paper.ROUTER_STEPS_SCION + paper.ROUTER_STEPS_HUMMINGBIRD_EXTRA:
        ours = measured.steps.get(name)
        rows.append(
            [
                name,
                paper_ns,
                f"{ours:.0f}" if ours is not None else "(in pipeline total)",
            ]
        )
    step_sum = sum(measured.steps.values())
    rows.append(["SUM of the timed steps", "", f"{step_sum:.0f}"])
    rows.append(["TOTAL SCION pipeline", paper.SCION_FORWARD_NS, f"{measured.scion_process_ns:.0f}"])
    rows.append(
        [
            "TOTAL Hummingbird pipeline",
            paper.HUMMINGBIRD_FORWARD_NS,
            f"{measured.hummingbird_process_ns:.0f}",
        ]
    )
    ratio = measured.hummingbird_process_ns / paper.HUMMINGBIRD_FORWARD_NS
    text = render_comparison(
        ["task", "paper ns (DPDK+AES-NI)", "measured ns (pure Python)"],
        rows,
        title="Table 3 — border-router packet validation timings",
        note=(
            f"Python/DPDK calibration factor: {ratio:.0f}x. Structure matches: "
            f"Hummingbird adds {measured.hummingbird_overhead_ns:.0f} ns "
            f"({measured.hummingbird_overhead_ns / measured.scion_process_ns:.1f}x "
            f"SCION) vs the paper's 185 ns (1.5x). Hummingbird:SCION cost ratio "
            f"{measured.hummingbird_process_ns / measured.scion_process_ns:.1f}x vs the "
            f"paper's {paper.HUMMINGBIRD_FORWARD_NS / paper.SCION_FORWARD_NS:.1f}x "
            f"(3 block encryptions + 1 key expansion against 1 encryption; without "
            f"AES-NI the expansion costs about two thirds of an encryption). The timed steps are "
            f"disjoint and cover {step_sum / measured.hummingbird_process_ns:.0%} of the hop."
        ),
    )
    report("table3_router_steps", text)
    assert measured.hummingbird_process_ns > measured.scion_process_ns
    assert step_sum <= measured.hummingbird_process_ns


def test_bench_hummingbird_router_process(benchmark):
    fixture = build_fixture(payload=500)
    packets = iter([fixture.hb_source.build_packet(bytes(500)) for _ in range(60_000)])

    def once():
        fixture.hb_router.process(next(packets), 0)

    benchmark.pedantic(once, rounds=2000, iterations=1, warmup_rounds=100)


def test_bench_scion_router_process(benchmark):
    fixture = build_fixture(payload=500)
    packets = iter([fixture.scion_source.build_packet(bytes(500)) for _ in range(60_000)])

    def once():
        fixture.scion_router.process(next(packets), 0)

    benchmark.pedantic(once, rounds=2000, iterations=1, warmup_rounds=100)


def test_table3_report(benchmark):
    """Regenerate the report once (timed as a single benchmark round)."""
    benchmark.pedantic(_table3_report_impl, rounds=1, iterations=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--payload", type=int, default=500, help="payload bytes")
    parser.add_argument("--samples", type=int, default=300, help="packets to time")
    parser.add_argument("--json", metavar="PATH",
                        help="write machine-readable results to PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized: fewer packets, and the per-step report too")
    args = parser.parse_args()
    if args.smoke:
        args.samples = min(args.samples, 100)
        _table3_report_impl(packets=200)
    fixture = build_fixture(payload=args.payload)
    results = []
    for name, source, router in (
        ("table3_hummingbird_router_process", fixture.hb_source, fixture.hb_router),
        ("table3_scion_router_process", fixture.scion_source, fixture.scion_router),
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
