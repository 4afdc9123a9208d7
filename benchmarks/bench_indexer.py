"""Indexed vs naive listing discovery at 10^4..10^6 listings.

The v1 discovery call (kept as :func:`~repro.marketdata.naive_best_listing`)
scanned EVERY ledger object per hop per query; the
v2 :class:`~repro.marketdata.MarketIndexer` consumes the marketplace event
stream incrementally into per-interface sorted structures.  This bench
fabricates markets of growing size (listings spread over a realistic pool
of AS interfaces), fires identical rectangle-cover queries at both paths,
and reports

* **index build** — event-consumption throughput of a cold ``sync()``;
* **indexed queries/sec** vs **naive queries/sec** and the speedup
  (acceptance bar: >= 50x at 10^5 listings);
* **incremental apply** — Sold/Delisted events folded into a live index
  without a rescan.

Run:  PYTHONPATH=src python benchmarks/bench_indexer.py [--smoke | --full]
  or: PYTHONPATH=src python -m pytest benchmarks/bench_indexer.py -q
"""

from __future__ import annotations

import argparse
import random
import time

try:
    from benchmarks.conftest import bench_result, report, write_bench_json
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import bench_result, report, write_bench_json

from repro.analysis import render_comparison
from repro.contracts.asset import ASSET_TYPE
from repro.contracts.market import LISTING_TYPE
from repro.ledger.chain import Ledger
from repro.ledger.objects import LedgerObject, Ownership
from repro.ledger.transactions import Event
from repro.marketdata import ListingQuery, MarketIndexer, naive_best_listing
from repro.scion.addresses import IsdAs

MARKETPLACE = "bench-marketplace"
GRANULARITY = 60
HORIZON_SLOTS = 2400  # granules of calendar time the listings spread over
ANCHOR = 1_700_000_000
MIN_SPEEDUP_AT_100K = 50.0
MIN_SPEEDUP_SMOKE = 10.0

DEFAULT_SIZES = (10_000, 100_000)
FULL_SIZES = (10_000, 100_000, 1_000_000)
SMOKE_SIZES = (2_000,)


def _key_pool(rng: random.Random, count: int = 160):
    """A realistic interface pool: ~20 ASes x 4 interfaces x 2 directions."""
    pool = []
    for asn in range(1, count // 8 + 1):
        for interface in range(1, 5):
            for is_ingress in (True, False):
                pool.append((1, asn, interface, is_ingress))
    return pool[:count]


def populate(ledger: Ledger, num_listings: int, seed: int = 7) -> list[dict]:
    """Fabricate ``num_listings`` listed assets directly into the ledger.

    Objects and Listed events are written the same shape the market
    contract produces, so both the naive scan and the indexer see exactly
    what a real deployment would — building 10^6 listings through
    transactions would dominate the benchmark's runtime.
    """
    rng = random.Random(seed)
    keys = _key_pool(rng)
    snapshots = []
    for index in range(num_listings):
        isd, asn, interface, is_ingress = rng.choice(keys)
        start_slot = rng.randrange(HORIZON_SLOTS)
        duration_slots = rng.randint(1, 120)
        start = ANCHOR + start_slot * GRANULARITY
        expiry = start + duration_slots * GRANULARITY
        asset_id = f"asset-{index:08d}"
        listing_id = f"listing-{index:08d}"
        asset_payload = {
            "isd": isd,
            "asn": asn,
            "issuer": f"as-{asn}",
            "bandwidth_kbps": rng.randrange(1_000, 1_000_000, 100),
            "start": start,
            "expiry": expiry,
            "interface": interface,
            "is_ingress": is_ingress,
            "granularity": GRANULARITY,
            "min_bandwidth_kbps": 100,
        }
        listing_payload = {
            "marketplace": MARKETPLACE,
            "asset": asset_id,
            "seller": f"as-{asn}",
            "price_micromist_per_unit": rng.randint(10, 500),
        }
        ledger.objects[asset_id] = LedgerObject(
            asset_id, ASSET_TYPE, Ownership.OWNED, MARKETPLACE, asset_payload
        )
        ledger.objects[listing_id] = LedgerObject(
            listing_id, LISTING_TYPE, Ownership.OWNED, MARKETPLACE, listing_payload
        )
        snapshot = {
            "marketplace": MARKETPLACE,
            "listing": listing_id,
            "asset": asset_id,
            "seller": listing_payload["seller"],
            "price_micromist_per_unit": listing_payload["price_micromist_per_unit"],
            **{
                key: asset_payload[key]
                for key in (
                    "isd",
                    "asn",
                    "interface",
                    "is_ingress",
                    "bandwidth_kbps",
                    "start",
                    "expiry",
                    "granularity",
                    "min_bandwidth_kbps",
                )
            },
        }
        ledger.checkpoint += 1
        ledger.events.append(Event("Listed", snapshot, "bench", ledger.checkpoint))
        snapshots.append(snapshot)
    return snapshots


def _queries(snapshots: list[dict], count: int, seed: int = 11) -> list[ListingQuery]:
    """Coverable queries drawn from random listings' rectangles."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        snapshot = rng.choice(snapshots)
        slots = (snapshot["expiry"] - snapshot["start"]) // GRANULARITY
        offset = rng.randrange(slots)
        length = rng.randint(1, slots - offset)
        start = snapshot["start"] + offset * GRANULARITY
        queries.append(
            ListingQuery(
                isd_as=IsdAs(snapshot["isd"], snapshot["asn"]),
                interface=snapshot["interface"],
                is_ingress=snapshot["is_ingress"],
                start=start,
                expiry=start + length * GRANULARITY,
                bandwidth_kbps=rng.randrange(100, snapshot["bandwidth_kbps"] + 1, 100),
            )
        )
    return queries


def _mutation_events(snapshots: list[dict], count: int, seed: int = 13) -> list[Event]:
    """Sold (shrink) and Delisted events against random live listings."""
    rng = random.Random(seed)
    events = []
    for victim in rng.sample(snapshots, count):
        if rng.random() < 0.5:
            events.append(
                Event(
                    "Delisted",
                    {
                        "marketplace": MARKETPLACE,
                        "listing": victim["listing"],
                        "asset": victim["asset"],
                    },
                    "bench",
                    0,
                )
            )
        else:
            events.append(
                Event(
                    "Sold",
                    {
                        "marketplace": MARKETPLACE,
                        "listing": victim["listing"],
                        "asset": "bench-sold-piece",
                        "price_mist": 1,
                        "buyer": "bench-buyer",
                        "listing_closed": False,
                        "remaining": {
                            "bandwidth_kbps": max(100, victim["bandwidth_kbps"] // 2),
                            "start": victim["start"],
                            "expiry": victim["expiry"],
                        },
                    },
                    "bench",
                    0,
                )
            )
    return events


def run_benchmark(sizes, naive_queries: int = 20, indexed_queries: int = 2_000):
    rows = []
    speedups = {}
    stats: dict[int, dict[str, float]] = {}
    for size in sizes:
        ledger = Ledger()
        snapshots = populate(ledger, size)
        queries = _queries(snapshots, max(naive_queries, indexed_queries))

        indexer = MarketIndexer(ledger, MARKETPLACE)
        began = time.perf_counter()
        indexer.sync()
        build_seconds = time.perf_counter() - began
        indexer.best(queries[0])  # compile the touched bucket outside timers

        began = time.perf_counter()
        for query in queries[:indexed_queries]:
            indexer.best(query, sync=False)
        indexed_rate = indexed_queries / (time.perf_counter() - began)

        began = time.perf_counter()
        for query in queries[:naive_queries]:
            naive_best_listing(ledger, MARKETPLACE, query)
        naive_rate = naive_queries / (time.perf_counter() - began)

        mutations = _mutation_events(snapshots, min(1_000, size // 2))
        ledger.events.extend(mutations)
        began = time.perf_counter()
        indexer.sync()
        apply_rate = len(mutations) / (time.perf_counter() - began)

        speedup = indexed_rate / naive_rate
        speedups[size] = speedup
        stats[size] = {
            "build_events_per_sec": size / build_seconds,
            "indexed_queries_per_sec": indexed_rate,
            "naive_queries_per_sec": naive_rate,
            "apply_events_per_sec": apply_rate,
        }
        rows.append(
            [
                f"{size:,}",
                f"{size / build_seconds:,.0f}",
                f"{indexed_rate:,.0f}",
                f"{naive_rate:,.1f}",
                f"{speedup:,.0f}x",
                f"{apply_rate:,.0f}",
            ]
        )
    table = render_comparison(
        ["listings", "build ev/s", "indexed q/s", "naive q/s", "speedup", "apply ev/s"],
        rows,
        title="Listing discovery: incremental index vs full-ledger scan",
        note="indexed = sorted-prefix bisect + the prefix priced row by row "
        "per query; naive = the v1 O(all objects) scan; apply = "
        "Sold/Delisted events folded in without a rescan.",
    )
    return table, speedups, stats


def test_bench_indexer_report():
    table, speedups, _ = run_benchmark(DEFAULT_SIZES)
    report("bench_indexer", table)
    assert speedups[100_000] >= MIN_SPEEDUP_AT_100K, speedups


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes + relaxed bar (CI wiring check, not a measurement)",
    )
    parser.add_argument(
        "--full", action="store_true", help="include the 10^6-listing tier"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write machine-readable results to PATH"
    )
    args = parser.parse_args()
    if args.smoke:
        table, speedups, stats = run_benchmark(
            SMOKE_SIZES, naive_queries=10, indexed_queries=500
        )
        print(table)
        floor = MIN_SPEEDUP_SMOKE
    else:
        table, speedups, stats = run_benchmark(FULL_SIZES if args.full else DEFAULT_SIZES)
        report("bench_indexer", table)
        floor = MIN_SPEEDUP_AT_100K if 100_000 in speedups else MIN_SPEEDUP_SMOKE
    write_bench_json(
        args.json,
        [
            bench_result(
                f"indexer_{metric.removesuffix('_per_sec')}",
                {"listings": size},
                ops_per_sec=rate,
            )
            for size, rates in sorted(stats.items())
            for metric, rate in rates.items()
        ],
    )
    worst = min(speedups.values())
    assert worst >= floor, f"speedup {worst:.1f}x below the {floor:.0f}x bar"
    print(f"\nOK: worst speedup {worst:,.0f}x (bar {floor:.0f}x)")


if __name__ == "__main__":
    main()
