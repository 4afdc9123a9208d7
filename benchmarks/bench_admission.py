"""Admission throughput: decisions/sec against loaded capacity calendars.

The admission hot path must keep up with market-scale request rates: an AS
fielding batch purchases decides thousands of windows per poll.  This bench
loads calendars with 10k..1M concurrent reservations (bulk-built via
``commit_batch``) and measures

* the **vectorized bulk path** (``bulk_admissible``): one numpy pass over a
  whole batch of windows — the acceptance bar is >= 100k decisions/sec;
* the **scalar path** (``peak_commitment`` per window) for comparison;
* sequential **FCFS admit** throughput (screen + commit);
* **sharded vs monolithic** calendars: a 10^7-reservation ``commit_batch``
  bulk load plus a mixed admit/release/expire churn phase against 10^6
  tracked reservations — the per-link mutation path time-sharding exists
  for (acceptance bar: >= 2x churn speedup).

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

from repro.admission import (
    AdmissionController,
    CapacityCalendar,
    FirstComeFirstServed,
)
from repro.admission.policy import AdmissionRequest
from repro.analysis import render_comparison
from repro.telemetry import get_registry

HORIZON = 1_000_000.0  # seconds of calendar time the reservations spread over
CAPACITY_KBPS = 100_000_000  # 100 Gbps interface
QUERY_BATCH = 200_000
MIN_BULK_DECISIONS_PER_SEC = 100_000


def _loaded_calendar(num_reservations: int, seed: int = 7) -> CapacityCalendar:
    rng = np.random.default_rng(seed)
    calendar = CapacityCalendar(CAPACITY_KBPS)
    starts = rng.uniform(0, HORIZON, num_reservations)
    durations = rng.uniform(60, 7200, num_reservations)
    bandwidths = rng.integers(100, 4000, num_reservations)
    calendar.commit_batch(bandwidths, starts, starts + durations, track=False)
    return calendar


def _query_windows(count: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, HORIZON, count)
    return starts, starts + rng.uniform(60, 7200, count)


def _decisions_per_sec(callable_, decisions: int) -> float:
    began = time.perf_counter()
    callable_()
    elapsed = time.perf_counter() - began
    return decisions / elapsed


def test_bench_bulk_admission_report():
    rows = []
    bulk_rates = {}
    for size in (10_000, 100_000, 1_000_000):
        calendar = _loaded_calendar(size)
        starts, ends = _query_windows(QUERY_BATCH)
        calendar.bulk_peak(starts[:10], ends[:10])  # compile outside the timer
        bulk = _decisions_per_sec(
            lambda: calendar.bulk_admissible(4000, starts, ends), QUERY_BATCH
        )
        scalar_n = 2_000
        scalar = _decisions_per_sec(
            lambda: [
                calendar.peak_commitment(s, e)
                for s, e in zip(starts[:scalar_n], ends[:scalar_n])
            ],
            scalar_n,
        )
        bulk_rates[size] = bulk
        rows.append(
            [
                f"{size:,}",
                f"{calendar.boundary_count:,}",
                f"{bulk:,.0f}",
                f"{scalar:,.0f}",
                f"{bulk / scalar:.0f}x",
            ]
        )
    table = render_comparison(
        ["reservations", "boundaries", "bulk dec/s", "scalar dec/s", "speedup"],
        rows,
        title="Admission decisions/sec vs calendar load "
        f"({QUERY_BATCH:,}-window batches, 100 Gbps interface)",
        note="bulk = vectorized searchsorted+reduceat over the compiled step "
        "function; scalar = per-window bisect.",
    )
    report("bench_admission", table)
    assert min(bulk_rates.values()) >= MIN_BULK_DECISIONS_PER_SEC, bulk_rates


def test_bench_bulk_admissible(benchmark):
    calendar = _loaded_calendar(100_000)
    starts, ends = _query_windows(QUERY_BATCH)
    result = benchmark(lambda: calendar.bulk_admissible(4000, starts, ends))
    assert result.shape == starts.shape


def test_bench_scalar_peak(benchmark):
    calendar = _loaded_calendar(100_000)
    starts, ends = _query_windows(512)
    benchmark(
        lambda: [calendar.peak_commitment(s, e) for s, e in zip(starts, ends)]
    )


def test_bench_fcfs_sequential_admit(benchmark):
    """Screen-and-commit throughput for a policy admitting live requests."""
    starts, ends = _query_windows(512)
    requests = [
        AdmissionRequest(4000, float(s), float(e), buyer=f"b{i}")
        for i, (s, e) in enumerate(zip(starts, ends))
    ]
    policy = FirstComeFirstServed()

    def run():
        calendar = _loaded_calendar(10_000)
        return policy.admit_batch(calendar, requests)

    decisions = benchmark(run)
    assert len(decisions) == len(requests)


# -- sharded vs monolithic ----------------------------------------------------

SHARD_SECONDS = 86_400.0
SHARD_HORIZON = 100 * SHARD_SECONDS  # one hundred day-shards
MIN_CHURN_SPEEDUP = 2.0


def _reservations(count: int, seed: int, horizon: float = SHARD_HORIZON):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, horizon, count)
    return (
        rng.integers(100, 4000, count),
        starts,
        starts + rng.uniform(60, 7200, count),
    )


def _timed(callable_) -> float:
    began = time.perf_counter()
    callable_()
    return time.perf_counter() - began


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


def sharded_comparison(
    load_count: int,
    tracked_count: int,
    churn_steps: int = 3,
    churn_admits: int = 800,
    churn_releases: int = 400,
):
    """Bulk-load + churn timings for monolithic vs sharded calendars.

    Returns (table rows, metrics dict).  The bulk load is untracked (the
    scenario-generator mode); the churn phase runs against ``tracked_count``
    individually releasable commitments.
    """
    factories = {
        "monolithic": lambda: CapacityCalendar(CAPACITY_KBPS, shard_seconds=None),
        "sharded": lambda: CapacityCalendar(CAPACITY_KBPS, shard_seconds=SHARD_SECONDS),
    }
    metrics: dict[str, dict[str, float]] = {name: {} for name in factories}
    probes = _reservations(1000, seed=3)
    loaded = {}
    for name, factory in factories.items():
        calendar = factory()
        load = _reservations(load_count, seed=23)
        metrics[name]["load"] = _timed(
            lambda: calendar.commit_batch(*load, track=False)
        )
        loaded[name] = calendar
    # The sharded bulk load must answer exactly like the monolithic one.
    expected = loaded["monolithic"].bulk_peak(probes[1], probes[2])
    if not np.array_equal(expected, loaded["sharded"].bulk_peak(probes[1], probes[2])):
        raise AssertionError("sharded bulk load diverged from monolithic")
    for name, factory in factories.items():
        calendar = factory()
        tracked = _reservations(tracked_count, seed=29)
        handles: list = []
        metrics[name]["tracked_load"] = _timed(
            lambda: handles.extend(calendar.commit_batch(*tracked, track=True))
        )
        metrics[name]["churn"] = _timed(
            lambda: _churn(calendar, handles, churn_steps, churn_admits, churn_releases)
        )
    rows = []
    for phase, label in (
        ("load", f"{load_count:,} commit_batch (untracked)"),
        ("tracked_load", f"{tracked_count:,} commit_batch (tracked)"),
        ("churn", f"churn: {churn_steps}x(expire+{churn_admits} admit+{churn_releases} release)"),
    ):
        mono, shard = metrics["monolithic"][phase], metrics["sharded"][phase]
        rows.append([label, f"{mono:.2f}s", f"{shard:.2f}s", f"{mono / shard:.1f}x"])
    return rows, metrics


def _sharded_report(rows, title_suffix: str) -> str:
    return render_comparison(
        ["phase", "monolithic", "sharded", "speedup"],
        rows,
        title="Sharded vs monolithic capacity calendars " + title_suffix,
        note=f"shard width {SHARD_SECONDS:.0f}s over a {SHARD_HORIZON / SHARD_SECONDS:.0f}-shard "
        "horizon; churn advances now by a fifth of a shard per step, mixing "
        "whole-shard expiry drops with point admits/releases.",
    )


def test_bench_sharded_vs_monolithic_report():
    rows, metrics = sharded_comparison(load_count=10_000_000, tracked_count=1_000_000)
    report(
        "bench_admission_sharded",
        _sharded_report(rows, "(10^7 bulk load, 10^6 tracked churn)"),
    )
    speedup = metrics["monolithic"]["churn"] / metrics["sharded"]["churn"]
    assert speedup >= MIN_CHURN_SPEEDUP, metrics


CONTROLLER_ADMITS = 20_000
CONTROLLER_ADMITS_SMOKE = 5_000


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
    rng = np.random.default_rng(seed)
    controller = AdmissionController(capacity_kbps=CAPACITY_KBPS)
    total = count + warmup
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

    return measure_op(run, samples=count, warmup=warmup)


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
    rng = np.random.default_rng(seed)
    total = 2 * count + 200  # both arms advance the same controller
    starts = rng.uniform(0, HORIZON, total)
    durations = rng.uniform(60, 7200, total)
    bandwidths = rng.integers(100, 4000, total)
    controller = AdmissionController(capacity_kbps=CAPACITY_KBPS, telemetry=True)
    state = {"index": 0}

    def arm(enabled: bool):
        def run():
            controller._telemetry = enabled
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

    return measure_ab(arm(True), arm(False), samples=count)


def _json_rows(
    metrics, load_count: int, tracked_count: int, churn_ops: int = 3 * (800 + 400)
) -> list[dict]:
    phase_ops = {"load": load_count, "tracked_load": tracked_count, "churn": churn_ops}
    return [
        bench_result(
            f"admission_{variant}_{phase}",
            {"load_count": load_count, "tracked_count": tracked_count},
            ops_per_sec=ops / seconds,
        )
        for variant, phases in sorted(metrics.items())
        for phase, seconds in sorted(phases.items())
        for ops in [phase_ops[phase]]
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down sharded-vs-monolithic comparison (CI-sized, no "
        "speedup floor): 2x10^5 bulk load, 5x10^4 tracked churn",
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
    if args.ab_overhead:
        admits = CONTROLLER_ADMITS_SMOKE if args.smoke else CONTROLLER_ADMITS
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
    if args.smoke:
        rows, metrics = sharded_comparison(
            load_count=200_000,
            tracked_count=50_000,
            churn_admits=200,
            churn_releases=100,
        )
        print(_sharded_report(rows, "(smoke)"))
        json_rows = _json_rows(metrics, 200_000, 50_000, churn_ops=3 * (200 + 100))
        admits = CONTROLLER_ADMITS_SMOKE
    else:
        rows, metrics = sharded_comparison(
            load_count=10_000_000, tracked_count=1_000_000
        )
        print(_sharded_report(rows, "(10^7 bulk load, 10^6 tracked churn)"))
        json_rows = _json_rows(metrics, 10_000_000, 1_000_000)
        admits = CONTROLLER_ADMITS
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
    if not args.smoke:
        speedup = metrics["monolithic"]["churn"] / metrics["sharded"]["churn"]
        if speedup < MIN_CHURN_SPEEDUP:
            raise SystemExit(f"churn speedup {speedup:.1f}x below {MIN_CHURN_SPEEDUP}x")


if __name__ == "__main__":
    main()
