"""Reclamation-scan throughput: the control loop at 10^5 tracked commitments.

Two passes over the same tracked population, against a monolithic active
calendar:

* **watch** — every reservation shows up, so a scan is pure judgment:
  sample the usage feed, compute observed rates, accumulate show-up
  aggregates, decide "not a no-show" for each.  This is the steady-state
  cost an AS pays per scan tick.
* **reclaim** — nobody shows up, so every tracked reservation is judged
  a no-show and its calendar commitment shrunk in place (the worst-case
  actuation burst).

Floor (CI): at 10^5 tracked commitments the watch pass must process
>= 100k reservations/s and the reclaim pass >= 20k reclamations/s.

Usage: PYTHONPATH=src python benchmarks/bench_reclaim.py
   or: PYTHONPATH=src python benchmarks/bench_reclaim.py --smoke
"""

import argparse
import time

try:
    from benchmarks.conftest import bench_result, report, write_bench_json
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import bench_result, report, write_bench_json

from repro.admission import ACTIVE, AdmissionController
from repro.analysis import render_comparison
from repro.reclaim import ReclamationEngine, UsageReporter

CAPACITY_KBPS = 10**10
INGRESS = 1
BOOKED_KBPS = 1_000
WINDOW = (0.0, 1_000.0)
SCAN_AT = 100.0  # well past the grace period, inside every window

FULL_TRACKED = 100_000
SMOKE_TRACKED = 5_000
FLOOR_WATCH_PER_SEC = 100_000.0
FLOOR_RECLAIM_PER_SEC = 20_000.0


def _tracked_population(count: int, show_up: bool):
    """One controller + engine with ``count`` tracked reservations."""
    controller = AdmissionController(CAPACITY_KBPS)
    calendar = controller.calendar(INGRESS, True, ACTIVE)
    # Full booked rate for SCAN_AT seconds, or silence: cumulative bytes.
    per_res = int(BOOKED_KBPS * 125 * SCAN_AT) if show_up else 0
    usage = {INGRESS: {res_id: per_res for res_id in range(count)}}
    engine = ReclamationEngine(
        controller,
        UsageReporter(lambda: usage, interval=0.25),
        grace_seconds=0.5,
    )
    for res_id in range(count):
        piece = calendar.commit(BOOKED_KBPS, *WINDOW, tag=f"b{res_id}")
        engine.track(
            res_id,
            INGRESS,
            BOOKED_KBPS,
            *WINDOW,
            [(INGRESS, True, piece.commitment_id)],
        )
    return engine


def reclaim_scan_comparison(count: int):
    """Time one watch scan and one reclaim-everything scan at ``count``."""
    metrics: dict[str, dict] = {}

    watcher = _tracked_population(count, show_up=True)
    began = time.perf_counter()
    events = watcher.scan(SCAN_AT)
    elapsed = time.perf_counter() - began
    assert events == [] and watcher.tracked_count == count
    metrics["watch"] = {"tracked_per_sec": count / elapsed, "reclaims": 0}

    reclaimer = _tracked_population(count, show_up=False)
    began = time.perf_counter()
    events = reclaimer.scan(SCAN_AT)
    elapsed = time.perf_counter() - began
    assert len(events) == count  # every booking was a no-show
    metrics["reclaim"] = {"tracked_per_sec": count / elapsed, "reclaims": count}

    rows = [
        [label, f"{stats['tracked_per_sec']:,.0f}", f"{stats['reclaims']:,}"]
        for label, stats in metrics.items()
    ]
    return rows, metrics


def _render(rows, scale_note: str) -> str:
    return render_comparison(
        ["pass", "tracked/s", "reclaims"],
        rows,
        title=f"Reclamation-scan throughput {scale_note} — judgment-only "
        "pass vs reclaim-everything pass",
        note=f"floor: watch >= {FLOOR_WATCH_PER_SEC:,.0f}/s and reclaim >= "
        f"{FLOOR_RECLAIM_PER_SEC:,.0f}/s at {FULL_TRACKED:,} tracked.",
    )


def floor_applies() -> bool:
    return True  # single-process: no machine-shape caveats


def enforce_floor(metrics: dict) -> None:
    watch = metrics["watch"]["tracked_per_sec"]
    reclaim = metrics["reclaim"]["tracked_per_sec"]
    assert watch >= FLOOR_WATCH_PER_SEC, (
        f"watch scan {watch:,.0f}/s is below the "
        f"{FLOOR_WATCH_PER_SEC:,.0f}/s floor"
    )
    assert reclaim >= FLOOR_RECLAIM_PER_SEC, (
        f"reclaim scan {reclaim:,.0f}/s is below the "
        f"{FLOOR_RECLAIM_PER_SEC:,.0f}/s floor"
    )


def _json_rows(metrics: dict, count: int) -> list[dict]:
    return [
        bench_result(
            f"reclaim_scan_{label}",
            {"tracked": count, "booked_kbps": BOOKED_KBPS},
            ops_per_sec=stats["tracked_per_sec"],
        )
        | {"reclaims": stats["reclaims"]}
        for label, stats in metrics.items()
    ]


def test_reclaim_scan_smoke_report():
    """CI-sized population; the throughput floors always apply."""
    rows, metrics = reclaim_scan_comparison(SMOKE_TRACKED)
    report("bench_reclaim_smoke", _render(rows, "(smoke)"))
    enforce_floor(metrics)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run: {SMOKE_TRACKED:,} tracked commitments "
        f"instead of {FULL_TRACKED:,}",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write machine-readable results to PATH"
    )
    parser.add_argument(
        "--no-floor",
        action="store_true",
        help="skip the throughput floor assertions",
    )
    args = parser.parse_args()
    count = SMOKE_TRACKED if args.smoke else FULL_TRACKED
    scale_note = "(smoke)" if args.smoke else "(10^5 tracked commitments)"
    rows, metrics = reclaim_scan_comparison(count)
    report("bench_reclaim", _render(rows, scale_note))
    if not args.no_floor:
        enforce_floor(metrics)
    write_bench_json(args.json, _json_rows(metrics, count))


if __name__ == "__main__":
    main()
