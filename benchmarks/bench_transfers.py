"""Deadline-transfer planning throughput.

Two measurements over a synthetic in-memory listing book (3 hops, both
directions tiled with staggered, price-varied listings — many covering
segments, real valleys):

* **plan** — full ``plan_on_book`` calls per second: option enumeration,
  density-greedy scheduling with valley-edge trimming, leg assembly.
  This is the hot path a transfer-heavy host pays per request.
* **options** — ``all_slot_options`` alone (covering sets computed once
  per constant segment), the enumeration half of a plan.

Floor (CI): at the full scale (240 slots) the planner must produce
>= 40 plans/s.

Usage: PYTHONPATH=src python benchmarks/bench_transfers.py
   or: PYTHONPATH=src python benchmarks/bench_transfers.py --smoke
"""

import argparse
import time
from types import SimpleNamespace

try:
    from benchmarks.conftest import bench_result, report, write_bench_json
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import bench_result, report, write_bench_json

from repro.analysis import render_comparison
from repro.marketdata import IndexedListing
from repro.transfers import DeadlineTransfer, TransferBook, TransferPlanner

T0 = 1_700_000_400  # multiple of 60: every tiled listing shares the lattice
HOPS = 3
GRANULARITY = 60
BANDWIDTH_KBPS = 10_000
MIN_BANDWIDTH_KBPS = 100

FULL_SLOTS = 240
SMOKE_SLOTS = 40
FLOOR_PLANS_PER_SEC = 40.0


def build_book(slots: int) -> tuple[TransferBook, DeadlineTransfer]:
    """A staggered, price-varied book: every direction tiles the horizon
    with several listings whose boundaries interleave across directions
    (many covering segments) and whose prices alternate peak/valley."""
    horizon = slots * GRANULARITY
    crossings = [
        SimpleNamespace(isd_as=f"1-{hop}", ingress=1, egress=2)
        for hop in range(HOPS)
    ]
    directions = {}
    for hop in range(HOPS):
        for is_ingress in (True, False):
            key = (hop, is_ingress)
            tiles = 4 + (hop + (0 if is_ingress else 1)) % 3
            edges = [
                T0 + (horizon * t // tiles) // GRANULARITY * GRANULARITY
                for t in range(tiles)
            ] + [T0 + horizon]
            listings = []
            for t in range(tiles):
                price = 30 if (t + hop) % 2 else 90  # valley / peak
                listings.append(
                    IndexedListing(
                        listing_id=f"L{hop}-{int(is_ingress)}-{t}",
                        asset_id=f"A{hop}-{int(is_ingress)}-{t}",
                        marketplace="m",
                        seller=f"as-{hop}",
                        price_micromist_per_unit=price,
                        isd=1,
                        asn=hop,
                        interface=1 if is_ingress else 2,
                        is_ingress=is_ingress,
                        bandwidth_kbps=BANDWIDTH_KBPS,
                        start=edges[t],
                        expiry=edges[t + 1],
                        granularity=GRANULARITY,
                        min_bandwidth_kbps=MIN_BANDWIDTH_KBPS,
                    )
                )
            directions[key] = listings
    book = TransferBook(crossings, T0, T0 + horizon, directions)
    capacity = BANDWIDTH_KBPS * horizon * 125
    transfer = DeadlineTransfer(
        crossings=tuple(crossings),
        bytes_total=int(capacity * 0.4),
        release=T0,
        deadline=T0 + horizon,
    )
    return book, transfer


def transfer_plan_comparison(slots: int):
    """Time planning and option enumeration at ``slots`` grid slots."""
    book, transfer = build_book(slots)
    planner = TransferPlanner(indexer=None)
    metrics: dict[str, dict] = {}

    rounds = 0
    began = time.perf_counter()
    while (elapsed := time.perf_counter() - began) < 0.5 or rounds < 3:
        plan = planner.plan_on_book(book, transfer)
        rounds += 1
    assert plan.meets_request
    metrics["plan"] = {
        "ops_per_sec": rounds / elapsed,
        "slots": len(book.slots),
    }

    rounds = 0
    began = time.perf_counter()
    while (elapsed := time.perf_counter() - began) < 0.5 or rounds < 3:
        options = book.all_slot_options(target_bytes=transfer.bytes_total)
        rounds += 1
    assert len(options) == len(book.slots)
    metrics["options"] = {
        "ops_per_sec": rounds / elapsed,
        "slots": len(book.slots),
    }
    rows = [
        [label, f"{stats['ops_per_sec']:,.1f}", f"{stats['slots']:,}"]
        for label, stats in metrics.items()
    ]
    return rows, metrics


def _render(rows, scale_note: str) -> str:
    return render_comparison(
        ["measure", "ops/s", "slots"],
        rows,
        title=f"Deadline-transfer planning {scale_note} — full plans, then "
        "option enumeration alone",
        note=f"floor: >= {FLOOR_PLANS_PER_SEC:,.0f} plans/s at {FULL_SLOTS} slots.",
    )


def floor_applies() -> bool:
    return True  # single-process, synthetic book: no machine-shape caveats


def enforce_floor(metrics: dict) -> None:
    plans = metrics["plan"]["ops_per_sec"]
    assert plans >= FLOOR_PLANS_PER_SEC, (
        f"planning at {plans:,.1f} plans/s is below the "
        f"{FLOOR_PLANS_PER_SEC:,.0f}/s floor"
    )


def _json_rows(metrics: dict, slots: int) -> list[dict]:
    return [
        bench_result(
            f"transfer_{label}",
            {"slots": slots, "hops": HOPS},
            ops_per_sec=stats["ops_per_sec"],
        )
        for label, stats in metrics.items()
    ]


def test_transfer_plan_smoke_report(benchmark):
    """CI-sized book; the plans/sec floor always applies."""

    def run():
        rows, metrics = transfer_plan_comparison(SMOKE_SLOTS)
        report("bench_transfers_smoke", _render(rows, "(smoke)"))
        enforce_floor(metrics)

    benchmark.pedantic(run, rounds=1, iterations=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run: {SMOKE_SLOTS} grid slots instead of {FULL_SLOTS}",
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
    slots = SMOKE_SLOTS if args.smoke else FULL_SLOTS
    scale_note = "(smoke)" if args.smoke else f"({FULL_SLOTS} slots)"
    rows, metrics = transfer_plan_comparison(slots)
    report("bench_transfers", _render(rows, scale_note))
    if not args.no_floor:
        enforce_floor(metrics)
    write_bench_json(args.json, _json_rows(metrics, slots))


if __name__ == "__main__":
    main()
