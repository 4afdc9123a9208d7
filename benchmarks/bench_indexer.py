"""Indexed vs naive listing discovery at 10^5 listings.

The v1 discovery call (kept as :func:`~repro.marketdata.naive_best_listing`)
scanned EVERY ledger object per hop per query; the
v2 :class:`~repro.marketdata.MarketIndexer` consumes the marketplace event
stream incrementally into per-interface sorted structures.  This bench
fabricates a market of 10^5 listings spread over a realistic pool of AS
interfaces and fires identical rectangle-cover queries at both paths.

Bar: the indexed path answers >= 50x the naive scan's queries/s.

Run:  PYTHONPATH=src python benchmarks/bench_indexer.py
(``tools/perf_guard.py`` gates the bar.)
"""

from __future__ import annotations

import random
import time

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
LISTINGS = 100_000
NAIVE_QUERIES = 20
INDEXED_QUERIES = 2_000
BARS = {"speedup": 50.0}


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
    what a real deployment would — building 10^5 listings through
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


def measure() -> dict[str, float]:
    """Indexed over naive queries/s on one fabricated market of ``LISTINGS``."""
    ledger = Ledger()
    snapshots = populate(ledger, LISTINGS)
    queries = _queries(snapshots, INDEXED_QUERIES)
    indexer = MarketIndexer(ledger, MARKETPLACE)
    indexer.sync()
    indexer.best(queries[0])  # warm the query path outside timers

    began = time.perf_counter()
    for query in queries:
        indexer.best(query, sync=False)
    indexed_rate = len(queries) / (time.perf_counter() - began)

    began = time.perf_counter()
    for query in queries[:NAIVE_QUERIES]:
        naive_best_listing(ledger, MARKETPLACE, query)
    naive_rate = NAIVE_QUERIES / (time.perf_counter() - began)
    return {"speedup": indexed_rate / naive_rate}


if __name__ == "__main__":
    print(measure())
