"""Path-wide admission throughput: atomic screen/commit/rollback cycles.

A path-wide grant multiplies the admission hot path by the hop count:
every cycle admits (and later releases) the window on *both* interface
directions of every hop, through each hop's own
:class:`~repro.admission.AdmissionController`.  This bench builds 2- and
4-hop :class:`~repro.pathadm.PathAdmission` coordinators over preloaded
calendars — sharded and monolithic — and measures full
screen → commit → rollback cycles, the constant-state version of the
two-phase protocol (rollback re-subtracts exactly what screen added, so
the calendars never grow and every sample sees the same load).

Acceptance bar: >= 6,000 admitted paths/sec at 2 hops on sharded
calendars (``shard_seconds`` set).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_path_admission.py -q
  or: PYTHONPATH=src python benchmarks/bench_path_admission.py --smoke
"""

from __future__ import annotations

import argparse
import time

import numpy as np

try:
    from benchmarks.conftest import (
        bench_result,
        measure_ab,
        measure_op,
        report,
        write_bench_json,
    )
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import bench_result, measure_ab, measure_op, report, write_bench_json

from repro.admission import ISSUED, AdmissionController
from repro.analysis import render_comparison
from repro.pathadm import PathAdmission, PathHop
from repro.telemetry import get_registry

HORIZON = 1_000_000.0  # seconds of calendar time the preload spreads over
CAPACITY_KBPS = 100_000_000  # 100 Gbps per interface direction
SHARD_SECONDS = 86_400.0
PATH_KBPS = 4_000
HOP_COUNTS = (2, 4)
PRELOAD = 5_000  # background reservations per interface direction
PRELOAD_SMOKE = 1_000
SAMPLES = 2_000
SAMPLES_SMOKE = 300
MIN_PATHS_PER_SEC_2HOP_SHARDED = 6_000


def _hop_controller(
    shard_seconds: float | None,
    preload: int,
    seed: int,
    telemetry: bool | None = None,
):
    """One AS's controller with both crossed directions preloaded, one
    ``commit`` per background reservation."""
    controller = AdmissionController(
        CAPACITY_KBPS, shard_seconds=shard_seconds, telemetry=telemetry
    )
    rng = np.random.default_rng(seed)
    for interface, is_ingress in ((1, True), (2, False)):
        starts = rng.uniform(0, HORIZON, preload)
        durations = rng.uniform(60, 7200, preload)
        bandwidths = rng.integers(100, 4000, preload)
        calendar = controller.calendar(interface, is_ingress, ISSUED)
        for bandwidth, start, end in zip(
            bandwidths.tolist(), starts.tolist(), (starts + durations).tolist()
        ):
            calendar.commit(bandwidth, start, end)
    return controller


def build_path(
    hops: int,
    shard_seconds: float | None,
    preload: int = PRELOAD,
    telemetry: bool | None = None,
) -> PathAdmission:
    return PathAdmission(
        [
            PathHop(
                name=f"as{index}",
                controller=_hop_controller(
                    shard_seconds, preload, seed=17 + index, telemetry=telemetry
                ),
                ingress_interface=1,
                egress_interface=2,
            )
            for index in range(hops)
        ],
        telemetry=telemetry,
    )


def _cycle(path: PathAdmission, seed: int = 11):
    """Closure running one full screen -> commit -> rollback cycle.

    Windows rotate through a precomputed spread so successive samples hit
    different calendar regions (different shards, different boundary
    neighbourhoods) instead of hammering one hot point.
    """
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, HORIZON - 7200, 1024)
    ends = starts + rng.uniform(60, 7200, 1024)
    state = {"index": 0}

    def run():
        index = state["index"]
        state["index"] = (index + 1) % len(starts)
        ticket = path.screen(
            PATH_KBPS, float(starts[index]), float(ends[index]), tag="bench"
        )
        if not ticket.admitted:
            raise AssertionError(ticket.reason)
        path.commit(ticket)
        path.rollback(ticket)

    return run


def path_admission_rates(preload: int = PRELOAD, samples: int = SAMPLES):
    """``{(hops, variant): measure_op dict}`` over sharded and monolithic."""
    rates = {}
    for hops in HOP_COUNTS:
        for variant, shard_seconds in (
            ("sharded", SHARD_SECONDS),
            ("monolithic", None),
        ):
            path = build_path(hops, shard_seconds, preload=preload)
            rates[(hops, variant)] = measure_op(
                _cycle(path), samples=samples, warmup=20
            )
    return rates


def _table(rates, preload: int) -> str:
    rows = [
        [
            str(hops),
            variant,
            f"{stats['ops_per_sec']:,.0f}",
            f"{stats['ops_per_sec'] * hops * 2:,.0f}",
            f"{stats['p50'] * 1e6:,.0f}",
            f"{stats['p99'] * 1e6:,.0f}",
        ]
        for (hops, variant), stats in sorted(rates.items())
    ]
    return render_comparison(
        ["hops", "calendar", "paths/s", "hop admits/s", "p50 us", "p99 us"],
        rows,
        title="Atomic path admission: screen+commit+rollback cycles/sec "
        f"({preload:,} background reservations per interface direction)",
        note="each cycle admits and releases both directions of every hop; "
        f"rollback leaves calendars byte-identical, so every sample sees "
        f"the same load. shard width {SHARD_SECONDS:.0f}s.",
    )


def test_bench_path_admission_report():
    rates = path_admission_rates(preload=PRELOAD, samples=500)
    report("bench_path_admission", _table(rates, PRELOAD))
    assert (
        rates[(2, "sharded")]["ops_per_sec"] >= MIN_PATHS_PER_SEC_2HOP_SHARDED
    ), rates


def path_admission_ab(preload: int, samples: int) -> dict:
    """Armed-vs-disarmed path-cycle overhead, paired in one process.

    ONE 2-hop sharded path runs interleaved screen/commit/rollback
    cycles with its telemetry flags (coordinator + every hop controller)
    flipped per arm, so both arms share calendars, caches, and memory
    layout and differ only in the guarded branches.  The flag writes
    cost both arms the same and cancel out; interleaving keeps
    multi-second CPU-throttle windows hitting both arms equally.  Needs
    ``REPRO_TELEMETRY=1``.
    """
    if not get_registry().enabled:
        raise SystemExit("--ab-overhead needs REPRO_TELEMETRY=1 (live registry)")
    path = build_path(2, SHARD_SECONDS, preload=preload, telemetry=True)
    cycle = _cycle(path)

    def arm(enabled: bool):
        def run():
            path._telemetry = enabled
            for hop in path.hops:
                hop.controller._telemetry = enabled
            cycle()

        return run

    return measure_ab(arm(True), arm(False), samples=samples, warmup=20)


def _json_rows(rates) -> list[dict]:
    telemetry_mode = "on" if get_registry().enabled else "off"
    return [
        bench_result(
            "path_admission_admit",
            {"hops": hops, "shard": variant, "telemetry": telemetry_mode},
            ops_per_sec=stats["ops_per_sec"],
            p50=stats["p50"],
            p99=stats["p99"],
        )
        for (hops, variant), stats in sorted(rates.items())
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (smaller preload and sample count, no floor)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write machine-readable results to PATH"
    )
    parser.add_argument(
        "--ab-overhead",
        action="store_true",
        help="only measure armed-vs-disarmed telemetry overhead on 2-hop "
        "sharded cycles (paired interleaved A/B; needs REPRO_TELEMETRY=1)",
    )
    args = parser.parse_args()
    preload = PRELOAD_SMOKE if args.smoke else PRELOAD
    samples = SAMPLES_SMOKE if args.smoke else SAMPLES
    if args.ab_overhead:
        stats = path_admission_ab(preload, samples)
        print(
            f"2-hop sharded path telemetry overhead: {stats['overhead']:+.1%} "
            f"(p50 on {stats['p50_on'] * 1e6:,.1f} us / "
            f"off {stats['p50_off'] * 1e6:,.1f} us, {samples:,} paired cycles)"
        )
        write_bench_json(
            args.json,
            [
                {
                    "name": "path_admission_admit_ab",
                    "params": {"hops": 2, "shard": "sharded", "preload": preload},
                    **stats,
                }
            ],
        )
        return
    began = time.perf_counter()
    rates = path_admission_rates(preload=preload, samples=samples)
    print(_table(rates, preload))
    print(f"\ntotal bench time: {time.perf_counter() - began:.1f}s")
    write_bench_json(args.json, _json_rows(rates))
    if not args.smoke:
        floor = rates[(2, "sharded")]["ops_per_sec"]
        if floor < MIN_PATHS_PER_SEC_2HOP_SHARDED:
            raise SystemExit(
                f"2-hop sharded path admission {floor:,.0f}/s below "
                f"{MIN_PATHS_PER_SEC_2HOP_SHARDED:,}/s"
            )


if __name__ == "__main__":
    main()
