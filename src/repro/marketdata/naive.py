"""Reference discovery by full-ledger scan (the pre-indexer behaviour).

``naive_best_listing`` walks EVERY object in the ledger, loads each
listing's asset, and prices the covers — O(all ledger objects) per query.
It exists for two reasons:

* the **differential oracle**: property tests assert the incremental
  :class:`~repro.marketdata.indexer.MarketIndexer` answers exactly what a
  full rescan would, after any interleaving of list/buy/cancel/relist;
* the **benchmark baseline**: ``benchmarks/bench_indexer.py`` measures the
  indexer's speedup against this scan.

Tie-breaking matches the indexer bit for bit: minimum (price, aligned
start, listing id).
"""

from __future__ import annotations

from repro.contracts.market import AUCTION_TYPE, LISTING_TYPE, PATH_AUCTION_TYPE
from repro.marketdata.query import Candidate, IndexedListing, ListingQuery, OpenAuction


def iter_listings(ledger, marketplace: str):
    """Yield an :class:`IndexedListing` for every live listing object."""
    for obj in ledger.objects.values():
        if obj.type_tag != LISTING_TYPE:
            continue
        if obj.payload["marketplace"] != marketplace:
            continue
        asset = ledger.objects.get(obj.payload["asset"])
        if asset is None:
            continue
        yield IndexedListing.from_ledger(obj.object_id, obj.payload, asset.payload)


def iter_auctions(ledger, marketplace: str):
    """Yield an :class:`OpenAuction` for every live auction object, in
    creation order (the object store keeps it)."""
    for obj in ledger.objects.values():
        if obj.type_tag not in (AUCTION_TYPE, PATH_AUCTION_TYPE):
            continue
        if obj.payload["marketplace"] != marketplace:
            continue
        if obj.type_tag == PATH_AUCTION_TYPE:
            legs = obj.payload["legs"]
        else:  # a window auction is its one leg, the rectangle on its asset
            asset = ledger.objects[obj.payload["asset"]]
            legs = [{**asset.payload, **obj.payload}]
        yield OpenAuction(
            obj.object_id,
            obj.type_tag == PATH_AUCTION_TYPE,
            tuple(None if leg is None else OpenAuction.leg(leg) for leg in legs),
        )


def naive_best_listing(ledger, marketplace: str, query: ListingQuery) -> Candidate | None:
    """Cheapest cover for ``query`` by scanning the whole object store."""
    best: Candidate | None = None
    for record in iter_listings(ledger, marketplace):
        if record.key != query.key:
            continue
        aligned = record.align(query.start, query.expiry)
        if aligned is None:
            continue
        buy_start, buy_expiry = aligned
        if query.exact_window and (buy_start, buy_expiry) != (query.start, query.expiry):
            continue
        if not record.sellable(query.bandwidth_kbps):
            continue
        candidate = record.candidate(query.bandwidth_kbps, buy_start, buy_expiry)
        if best is None or candidate.rank() < best.rank():
            best = candidate
    return best
