"""Deadline-transfer planning throughput.

Full ``plan_on_book`` calls per second over a synthetic in-memory listing
book of 240 grid slots (3 hops, both directions tiled with staggered,
price-varied listings — many covering segments, real valleys): option
enumeration, density-greedy scheduling with valley-edge trimming, leg
assembly.  This is the hot path a transfer-heavy host pays per request.

Bar: >= 40 plans/s at 240 slots.

Run:  PYTHONPATH=src python benchmarks/bench_transfers.py
(``tools/perf_guard.py`` gates the bar.)
"""

import time
from types import SimpleNamespace

from repro.marketdata import IndexedListing
from repro.transfers import DeadlineTransfer, TransferBook, TransferPlanner

T0 = 1_700_000_400  # multiple of 60: every tiled listing shares the lattice
HOPS = 3
GRANULARITY = 60
BANDWIDTH_KBPS = 10_000
MIN_BANDWIDTH_KBPS = 100

SLOTS = 240
BARS = {"plans_per_sec": 40.0}


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


def measure() -> dict[str, float]:
    """Full plans/s over the ``SLOTS``-slot book, timed for at least 0.5 s."""
    book, transfer = build_book(SLOTS)
    planner = TransferPlanner(indexer=None)
    rounds = 0
    began = time.perf_counter()
    while (elapsed := time.perf_counter() - began) < 0.5 or rounds < 3:
        plan = planner.plan_on_book(book, transfer)
        rounds += 1
    assert plan.meets_request
    return {"plans_per_sec": rounds / elapsed}


if __name__ == "__main__":
    print(measure())
