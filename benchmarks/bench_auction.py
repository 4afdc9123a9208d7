"""Sealed-bid auction clearing throughput at 10^5 bids per window.

``settle_auction`` re-runs :func:`repro.admission.auction.uniform_price_clearing`
on-chain, so the clearing rule is on the consensus critical path: a popular
window can easily attract 10^5 sealed bids, and the settle transaction must
still clear in well under a second.  This bench fabricates a book of 10^5
bids (lognormal-ish price spread, granular bandwidths) and times plain
uniform-price clearing (sort + greedy fill) over it.

Bar: >= 100k cleared bids/sec.

Run:  PYTHONPATH=src python benchmarks/bench_auction.py
(``tools/perf_guard.py`` gates the bar.)
"""

from __future__ import annotations

import random
import time

from repro.admission import Bid, uniform_price_clearing

SUPPLY_KBPS = 10_000_000  # a 10 Gbps window up for auction
RESERVE = 50
MIN_BW = 100
BIDS = 100_000
BARS = {"clear_bids_per_sec": 100_000.0}


def fabricate_bids(count: int, seed: int = 7) -> list[Bid]:
    """A contended book: many more kbps demanded than the supply offers."""
    rng = random.Random(seed)
    bids = []
    for seq in range(count):
        bids.append(
            Bid(
                bidder=f"host-{seq % (count // 4 + 1)}",  # repeat bidders
                bandwidth_kbps=rng.randrange(MIN_BW, 10_000, 100),
                price_micromist_per_unit=max(1, int(rng.lognormvariate(4.0, 0.8))),
                seq=seq,
            )
        )
    return bids


def measure() -> dict[str, float]:
    """Cleared bids/s of one uniform-price clearing over ``BIDS`` bids."""
    bids = fabricate_bids(BIDS)
    began = time.perf_counter()
    uniform_price_clearing(bids, SUPPLY_KBPS, RESERVE)
    return {"clear_bids_per_sec": BIDS / (time.perf_counter() - began)}


if __name__ == "__main__":
    print(measure())
