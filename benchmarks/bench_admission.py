"""Admission throughput: one request at a time against loaded calendars.

An AS admits each asset it issues and each reservation it grants on its own,
so this bench loads capacity calendars one ``commit`` per reservation and
measures

* the **tracked load** itself: sequential ``commit`` of every reservation
  at ``shard_seconds=None`` and at a day width (reported, no floor);
* **sharded vs monolithic** churn: mixed admit/release/expire steps against
  the loaded calendars — the per-link mutation path time-sharding exists for
  (acceptance bar at full size: >= 2x churn speedup);
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

from repro.admission import AdmissionController, CapacityCalendar
from repro.analysis import render_comparison
from repro.telemetry import get_registry

HORIZON = 1_000_000.0  # seconds of calendar time the reservations spread over
CAPACITY_KBPS = 100_000_000  # 100 Gbps interface
SHARD_SECONDS = 86_400.0
SHARD_HORIZON = 100 * SHARD_SECONDS  # one hundred day-shards
MIN_CHURN_SPEEDUP = 2.0
CHURN_STEPS = 3
# (tracked load, admits and releases per churn step, sequential controller
# admits).  The full load is the largest the monolithic arm commits in well
# under a minute: a sequential commit into one boundary list costs O(n).
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


# -- sharded vs monolithic ----------------------------------------------------


def _churn(calendar, handles: list, steps: int, admits: int, releases: int) -> None:
    """Deterministic mixed workload: expire + admit + targeted release.

    Each step advances ``now`` by a fifth of a shard (so expiry sweeps both
    inside shards and across whole-shard drops), admits fresh near-future
    reservations, and releases random live commitments — the per-link
    mutation mix a busy interface actually sees.
    """
    rng = np.random.default_rng(41)
    now = 0.0
    for _ in range(steps):
        now += SHARD_SECONDS / 5
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


def sharded_comparison(tracked_count: int, churn_admits: int, churn_releases: int):
    """Tracked-load + churn timings for monolithic vs sharded calendars.

    The load commits ``tracked_count`` individually releasable reservations
    one at a time; three churn steps then run against them.  Reports the
    table (``results/bench_admission_sharded.txt``) and returns
    ``({variant: {phase: seconds}}, JSON rows)``.
    """
    widths = {"monolithic": None, "sharded": SHARD_SECONDS}
    metrics: dict[str, dict[str, float]] = {name: {} for name in widths}
    tracked, probes = _reservations(tracked_count, seed=29), _reservations(1000, seed=3)
    answers = {}
    for name, width in widths.items():
        calendar = CapacityCalendar(CAPACITY_KBPS, shard_seconds=width)
        began = time.perf_counter()
        handles = [calendar.commit(*row) for row in tracked]  # one request at a time
        metrics[name]["tracked_load"] = time.perf_counter() - began
        answers[name] = [calendar.peak_commitment(start, end) for _, start, end in probes]
        began = time.perf_counter()
        _churn(calendar, handles, CHURN_STEPS, churn_admits, churn_releases)
        metrics[name]["churn"] = time.perf_counter() - began
    # The sharded load must answer exactly like the monolithic one.
    if answers["monolithic"] != answers["sharded"]:
        raise AssertionError("sharded tracked load diverged from monolithic")
    churn_ops = CHURN_STEPS * (churn_admits + churn_releases)
    ops = {"tracked_load": tracked_count, "churn": churn_ops}
    rows, json_rows = [], []
    for phase, label in (
        ("tracked_load", f"{tracked_count:,} commit (tracked, one at a time)"),
        ("churn", f"churn: {CHURN_STEPS}x(expire+{churn_admits} admit+{churn_releases} release)"),
    ):
        mono, shard = metrics["monolithic"][phase], metrics["sharded"][phase]
        rows.append([label, f"{mono:.2f}s", f"{shard:.2f}s", f"{mono / shard:.1f}x"])
        json_rows += [
            bench_result(
                f"admission_{variant}_{phase}",
                {"tracked_count": tracked_count},
                ops_per_sec=ops[phase] / phases[phase],
            )
            for variant, phases in sorted(metrics.items())
        ]
    report(
        "bench_admission_sharded",
        render_comparison(
            ["phase", "monolithic", "sharded", "speedup"],
            rows,
            title=f"Sharded vs monolithic capacity calendars ({tracked_count:,} tracked)",
            note=f"shard width {SHARD_SECONDS:.0f}s over a "
            f"{SHARD_HORIZON / SHARD_SECONDS:.0f}-shard horizon; churn advances now "
            "by a fifth of a shard per step, mixing whole-shard expiry drops with "
            "point admits/releases.",
        ),
    )
    return metrics, json_rows


def _churn_speedup(metrics: dict) -> float:
    return metrics["monolithic"]["churn"] / metrics["sharded"]["churn"]


def test_bench_sharded_vs_monolithic_report():
    tracked, churn_admits, churn_releases, _ = SIZES["full"]
    metrics, _ = sharded_comparison(tracked, churn_admits, churn_releases)
    assert _churn_speedup(metrics) >= MIN_CHURN_SPEEDUP, metrics


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
        help="scaled-down sharded-vs-monolithic comparison (CI-sized, no "
        f"speedup floor): {SIZES['smoke'][0]:,} tracked commits, then churn",
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
    metrics, json_rows = sharded_comparison(tracked, churn_admits, churn_releases)
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
    if not args.smoke and _churn_speedup(metrics) < MIN_CHURN_SPEEDUP:
        raise SystemExit(
            f"churn speedup {_churn_speedup(metrics):.1f}x below {MIN_CHURN_SPEEDUP}x"
        )


if __name__ == "__main__":
    main()
