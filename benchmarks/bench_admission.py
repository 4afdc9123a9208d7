"""Admission throughput: one request at a time against loaded calendars.

An AS admits each asset it issues and each reservation it grants on its own,
so this bench loads capacity calendars one ``commit`` per reservation and
measures

* at each shard width of a sweep from an hour to a week, the **tracked
  load** itself (sequential ``commit`` of every reservation) and **churn**
  (mixed admit/release/expire steps against the loaded calendar, the
  per-link mutation path) — the measurement behind
  ``DEFAULT_SHARD_SECONDS``; every width must answer the same probes alike;
* the ``AdmissionController.admit_issue`` hot path, with telemetry on or off
  (``--ab-overhead``: armed vs disarmed, paired in one process).

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_admission.py -q
  or: PYTHONPATH=src python benchmarks/bench_admission.py --smoke
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

from repro.admission import DEFAULT_SHARD_SECONDS, AdmissionController, CapacityCalendar
from repro.analysis import render_comparison
from repro.telemetry import get_registry

HORIZON = 1_000_000.0  # seconds of calendar time the reservations spread over
CAPACITY_KBPS = 100_000_000  # 100 Gbps interface
DAY = 86_400.0
WIDTHS = {"1 h": 3_600.0, "6 h": 21_600.0, "1 d": DEFAULT_SHARD_SECONDS, "7 d": 7 * DAY}
SHARD_HORIZON = 100 * DAY  # the reservations spread over a hundred days
CHURN_STEPS = 3
# (tracked load, admits and releases per churn step, sequential controller
# admits).
SIZES = {"full": (200_000, 800, 400, 20_000), "smoke": (50_000, 200, 100, 5_000)}


def _reservations(count: int, seed: int) -> list[tuple[int, float, float]]:
    """``count`` seeded ``(kbps, start, end)`` rows over the shard horizon."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, SHARD_HORIZON, count)
    return list(
        zip(
            rng.integers(100, 4000, count).tolist(),
            starts.tolist(),
            (starts + rng.uniform(60, 7200, count)).tolist(),
        )
    )


# -- the shard-width sweep -----------------------------------------------------


def _churn(calendar, handles: list, steps: int, admits: int, releases: int) -> None:
    """Deterministic mixed workload: expire + admit + targeted release.

    Each step advances ``now`` by a fifth of a day (so expiry sweeps both
    inside shards and, at most widths, across whole-shard drops), admits
    fresh near-future reservations, and releases random live commitments —
    the per-link mutation mix a busy interface actually sees.
    """
    rng = np.random.default_rng(41)
    now = 0.0
    for _ in range(steps):
        now += DAY / 5
        calendar.expire(now)
        handles[:] = [handle for handle in handles if handle.end > now]
        starts = now + rng.uniform(0, 7200, admits)
        durations = rng.uniform(60, 7200, admits)
        bandwidths = rng.integers(100, 4000, admits)
        for bandwidth, start, duration in zip(bandwidths, starts, durations):
            handles.append(
                calendar.admit(int(bandwidth), float(start), float(start + duration))
            )
        for _ in range(min(releases, len(handles))):
            position = int(rng.integers(0, len(handles)))
            handles[position], handles[-1] = handles[-1], handles[position]
            calendar.release(handles.pop().commitment_id)


def width_sweep(tracked_count: int, churn_admits: int, churn_releases: int):
    """Tracked-load + churn rates of one calendar per shard width.

    The load commits ``tracked_count`` individually releasable reservations
    one at a time; three churn steps then run against them.  Reports the
    table (``results/bench_admission_widths.txt``) and returns JSON rows.
    """
    tracked, probes = _reservations(tracked_count, seed=29), _reservations(1000, seed=3)
    churn_ops = CHURN_STEPS * (churn_admits + churn_releases)
    answers, rows, json_rows = [], [], []
    for label, width in WIDTHS.items():
        calendar = CapacityCalendar(CAPACITY_KBPS, shard_seconds=width)
        began = time.perf_counter()
        handles = [calendar.commit(*row) for row in tracked]  # one request at a time
        load_rate = tracked_count / (time.perf_counter() - began)
        answers.append([calendar.peak_commitment(start, end) for _, start, end in probes])
        began = time.perf_counter()
        _churn(calendar, handles, CHURN_STEPS, churn_admits, churn_releases)
        churn_rate = churn_ops / (time.perf_counter() - began)
        default = " (default)" if width == DEFAULT_SHARD_SECONDS else ""
        rows.append([label + default, f"{load_rate:,.0f}", f"{churn_rate:,.0f}"])
        json_rows += [
            bench_result(
                f"admission_{phase}",
                {"tracked_count": tracked_count, "shard_seconds": width},
                ops_per_sec=rate,
            )
            for phase, rate in (("tracked_load", load_rate), ("churn", churn_rate))
        ]
    if any(answer != answers[0] for answer in answers):
        raise AssertionError("shard widths answered the same probes differently")
    report(
        "bench_admission_widths",
        render_comparison(
            ["shard width", "tracked load commits/s", "churn ops/s"],
            rows,
            title=f"Capacity calendar by shard width ({tracked_count:,} tracked)",
            note=f"reservations over {SHARD_HORIZON / DAY:.0f} days; churn is "
            f"{CHURN_STEPS}x(expire + {churn_admits} admit + {churn_releases} release), "
            "advancing now by a fifth of a day per step.",
        ),
    )
    return json_rows


def test_bench_width_sweep_report():
    tracked, churn_admits, churn_releases, _ = SIZES["full"]
    width_sweep(tracked, churn_admits, churn_releases)


def _admitter(controller: AdmissionController, total: int, seed: int):
    """Closure admitting the next of ``total`` seeded windows on one interface."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, HORIZON, total)
    durations = rng.uniform(60, 7200, total)
    bandwidths = rng.integers(100, 4000, total)
    state = {"index": 0}

    def run():
        index = state["index"]
        state["index"] = index + 1
        controller.admit_issue(
            1,
            True,
            int(bandwidths[index]),
            float(starts[index]),
            float(starts[index] + durations[index]),
        )

    return run


def controller_admit_stats(count: int, seed: int = 13) -> dict:
    """Sequential ``AdmissionController.admit_issue`` per-op stats.

    This is the telemetry-sensitive hot path: with a live registry every
    decision pays one counter increment, one histogram observation, and two
    ``perf_counter`` reads; with the null registry those collapse to a
    single boolean test.  ``tools/perf_guard.py`` runs this section with
    ``REPRO_TELEMETRY`` on and off and enforces the <5 % overhead bar —
    comparing **median per-op latency**, which is why this measures each
    admit individually (``measure_op``) instead of timing one long loop:
    a CPU-throttle window mid-run poisons total elapsed time but leaves
    the median untouched.
    """
    warmup = 50
    controller = AdmissionController(capacity_kbps=CAPACITY_KBPS)
    return measure_op(
        _admitter(controller, count + warmup, seed), samples=count, warmup=warmup
    )


def controller_admit_ab(count: int, seed: int = 13) -> dict:
    """Armed-vs-disarmed admit overhead, paired in one process.

    Drives ONE controller under the live registry and flips its
    ``_telemetry`` flag per arm, so both arms share every byte of state —
    calendars, caches, memory layout — and differ only in the guarded
    branch.  (Separate per-arm controllers re-introduce allocator and
    layout luck worth a few percent; separate bench *runs* are even worse
    on machines whose clock throttles in multi-second windows.)  The flag
    write itself costs both arms the same, so it cancels out of the
    comparison.
    """
    if not get_registry().enabled:
        raise SystemExit("--ab-overhead needs REPRO_TELEMETRY=1 (live registry)")
    controller = AdmissionController(capacity_kbps=CAPACITY_KBPS, telemetry=True)
    admit = _admitter(controller, 2 * count + 200, seed)  # both arms advance it

    def arm(enabled: bool):
        def run():
            controller._telemetry = enabled
            admit()

        return run

    return measure_ab(arm(True), arm(False), samples=count)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down shard-width sweep (CI-sized): "
        f"{SIZES['smoke'][0]:,} tracked commits, then churn, per width",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write machine-readable results to PATH"
    )
    parser.add_argument(
        "--ab-overhead",
        action="store_true",
        help="only measure armed-vs-disarmed telemetry overhead on the "
        "controller admit hot path (paired interleaved A/B; needs "
        "REPRO_TELEMETRY=1)",
    )
    args = parser.parse_args()
    tracked, churn_admits, churn_releases, admits = SIZES["smoke" if args.smoke else "full"]
    if args.ab_overhead:
        stats = controller_admit_ab(admits)
        print(
            f"controller admit telemetry overhead: {stats['overhead']:+.1%} "
            f"(p50 on {stats['p50_on'] * 1e6:,.1f} us / "
            f"off {stats['p50_off'] * 1e6:,.1f} us, {admits:,} paired admits)"
        )
        write_bench_json(
            args.json,
            [
                {
                    "name": "admission_controller_admit_ab",
                    "params": {"count": admits},
                    **stats,
                }
            ],
        )
        return
    json_rows = width_sweep(tracked, churn_admits, churn_releases)
    telemetry_mode = "on" if get_registry().enabled else "off"
    admit_stats = controller_admit_stats(admits)
    print(
        f"\ncontroller admit hot path: {admit_stats['ops_per_sec']:,.0f} admits/s, "
        f"p50 {admit_stats['p50'] * 1e6:,.1f} us "
        f"(telemetry {telemetry_mode}, {admits:,} sequential admits)"
    )
    json_rows.append(
        bench_result(
            "admission_controller_admit",
            {"count": admits, "telemetry": telemetry_mode},
            ops_per_sec=admit_stats["ops_per_sec"],
            p50=admit_stats["p50"],
            p99=admit_stats["p99"],
        )
    )
    write_bench_json(args.json, json_rows)


if __name__ == "__main__":
    main()
