"""Event-driven market index: incremental, per-interface, bisected.

The paper's host stack assumes an **off-chain indexer** (§3.2) between the
ledger and the buyers: hosts should never scan the whole object store to
find a listing.  :class:`MarketIndexer` consumes the marketplace's event
stream *incrementally* — ``Listed``/``Relisted`` add listings,
``Delisted`` removes them, ``Sold`` shrinks or removes the listing the
purchase carved from, ``Reclaimed`` annotates the following listing with
its no-show provenance, ``AuctionOpened`` / ``PathAuctionOpened`` /
``PathLegContributed`` grow the open-auction view and ``AuctionSettled`` /
``PathAuctionSettled`` close an auction and leave its outcome — so the
index is always a pure function of the events applied so far and never
needs a rescan.  It is the one off-chain view of the marketplace: hosts and
both planners ask it and replay nothing themselves.

The index holds each live listing once, by id, and per ``(isd, asn,
interface, direction)`` key a sorted list of ``(asset start, listing id)``.
A rectangle-cover query bisects that list for the listings whose asset
starts at or before the request (``O(log n)`` selection) and puts each
through :class:`~repro.marketdata.query.IndexedListing`'s ``align``,
``sellable`` and ``candidate`` — the contract's granule alignment,
minimum-bandwidth rule and ceil pricing, so the quoted price is the price
``buy`` will charge.

Covers rank by (price, aligned start, listing id);
:mod:`repro.marketdata.naive` implements the same contract by full-ledger
scan for differential testing.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import math
import operator
import time

from repro.marketdata.query import (
    Candidate,
    IndexedListing,
    ListingQuery,
    OpenAuction,
    price_mist,
)
from repro.telemetry import get_registry

_ADD_EVENTS = ("Listed", "Relisted")
_START = operator.itemgetter(0)  # of a key's (asset start, listing id) entry
# event type -> the payload key that names the auction
_AUCTION_EVENTS = {
    "AuctionOpened": "auction",
    "AuctionSettled": "auction",
    "PathAuctionOpened": "path_auction",
    "PathLegContributed": "path_auction",
    "PathAuctionSettled": "path_auction",
}


class MarketIndexer:
    """Incremental off-chain index of one marketplace's live listings and
    open auctions.

    ``sync()`` applies every not-yet-seen ledger event (the event list is
    append-only, so the cursor is a plain position); queries answer from
    the in-memory structures without touching the object store.

    >>> from repro.ledger.chain import Ledger
    >>> from repro.ledger.transactions import Event
    >>> from repro.marketdata.query import ListingQuery
    >>> from repro.scion.addresses import IsdAs
    >>> ledger = Ledger()
    >>> ledger.events.append(Event("Listed", {
    ...     "marketplace": "m", "listing": "L1", "asset": "A1",
    ...     "seller": "as-7", "price_micromist_per_unit": 50,
    ...     "isd": 1, "asn": 7, "interface": 1, "is_ingress": True,
    ...     "bandwidth_kbps": 10_000, "start": 0, "expiry": 3600,
    ...     "granularity": 60, "min_bandwidth_kbps": 100}, "tx", 1))
    >>> indexer = MarketIndexer(ledger, "m")
    >>> found = indexer.best(ListingQuery(IsdAs(1, 7), 1, True, 60, 120, 2_000))
    >>> (found.listing.listing_id, found.price_mist)
    ('L1', 6)
    >>> indexer.best(ListingQuery(IsdAs(1, 7), 1, True, 60, 120, 20_000)) is None
    True
    """

    def __init__(self, ledger, marketplace: str) -> None:
        self.ledger = ledger
        self.marketplace = marketplace
        self._position = 0
        self._by_listing: dict[str, IndexedListing] = {}
        # Per (isd, asn, interface, is_ingress) key: (asset start, listing id)
        # of each of its live listings, sorted.
        self._keys: dict[tuple[int, int, int, bool], list[tuple[int, str]]] = (
            collections.defaultdict(list)
        )
        # Reclamation provenance per live listing: the ``Reclaimed`` event
        # precedes its listing's ``Listed``/``Relisted`` in the same
        # transaction, so the annotation is stashed by listing id and
        # pruned when the listing leaves the index.
        self._provenance: dict[str, dict] = {}
        # Open auctions in arrival order, and every settle payload by id.
        self._auctions: dict[str, OpenAuction] = {}
        self._settlements: dict[str, dict] = {}
        self.reclaimed_seen = 0
        self.events_applied = 0
        registry = get_registry()
        self._m_events = registry.counter(
            "indexer_events_total",
            "Ledger events scanned by sync(), split by whether they mutated "
            "the index.",
            ("result",),
        )
        self._m_query_seconds = registry.histogram(
            "indexer_query_seconds",
            "Latency of one index query (ledger sync excluded).",
            ("op",),
        )
        self._g_live = registry.gauge(
            "indexer_live_listings", "Live listings across all keys."
        ).labels()
        self._g_bucket = registry.gauge(
            "indexer_bucket_listings",
            "Live listings per (isd, asn, interface, direction) bucket.",
            ("isd", "asn", "interface", "direction"),
        )
        self._m_reclaimed = registry.counter(
            "indexer_reclaimed_listings_total",
            "Reclaimed provenance events applied (listings whose supply "
            "came back from a no-show reservation).",
        ).labels()

    # -- event consumption -------------------------------------------------------

    def sync(self) -> int:
        """Apply all new ledger events.

        Idempotent and incremental: the cursor is a position into the
        append-only event list, so calling it after every transaction or
        once per epoch gives the same index.

        Returns:
            How many events actually mutated the index (events of other
            marketplaces, non-market events, and unknown listings do not
            count).
        """
        events = self.ledger.events
        applied = 0
        scanned = 0
        while self._position < len(events):
            event = events[self._position]
            self._position += 1
            scanned += 1
            if self._apply(event):
                applied += 1
        self.events_applied += applied
        if scanned:
            self._record_events(applied, scanned)
        return applied

    def _record_events(self, applied: int, scanned: int) -> None:
        self._m_events.labels("applied").inc(applied)
        self._m_events.labels("skipped").inc(scanned - applied)
        if applied:
            self._g_live.set(len(self._by_listing))
            for (isd, asn, interface, is_ingress), entries in self._keys.items():
                self._g_bucket.labels(
                    isd, asn, interface, "ingress" if is_ingress else "egress"
                ).set(len(entries))

    def _apply(self, event) -> bool:
        kind, payload = event.event_type, event.payload
        if payload.get("marketplace") != self.marketplace:
            return False
        if kind == "Reclaimed":
            self._provenance[payload["listing"]] = dict(
                payload.get("provenance") or {}
            )
            self.reclaimed_seen += 1
            self._m_reclaimed.inc()
            return True
        if kind in _ADD_EVENTS:
            # A replayed Listed/Relisted of a live listing replaces it.
            self._put(IndexedListing.from_event(payload))
            return True
        if kind == "Delisted":
            # Sold/Delisted of a listing we never tracked (e.g. an indexer
            # attached mid-stream) mutates nothing and must not count as
            # applied, or events_applied stops being a progress signal.
            return self._drop(payload["listing"])
        if kind == "Sold":
            listing_id = payload["listing"]
            if payload.get("listing_closed", True):
                return self._drop(listing_id)
            record = self._by_listing.get(listing_id)
            if record is None:
                return False
            # the listing's asset shrank to what ``Sold`` reports as remaining
            self._put(dataclasses.replace(record, **payload["remaining"]))
            return True
        if kind in _AUCTION_EVENTS:
            return self._apply_auction(kind, payload[_AUCTION_EVENTS[kind]], payload)
        return False

    def _apply_auction(self, kind: str, auction_id: str, payload: dict) -> bool:
        if kind == "AuctionOpened":
            legs = (OpenAuction.leg(payload),)
            self._auctions[auction_id] = OpenAuction(auction_id, False, legs)
        elif kind == "PathAuctionOpened":
            legs = (None,) * payload["num_legs"]
            self._auctions[auction_id] = OpenAuction(auction_id, True, legs)
        elif kind == "PathLegContributed":
            shell = self._auctions.get(auction_id)
            if shell is None:  # opened before this index attached
                return False
            legs = list(shell.legs)
            legs[payload["leg_index"]] = OpenAuction.leg(payload)
            self._auctions[auction_id] = dataclasses.replace(shell, legs=tuple(legs))
        else:  # either settle: the book is closed, its outcome is the payload
            self._auctions.pop(auction_id, None)
            self._settlements[auction_id] = payload
        return True

    def _put(self, record: IndexedListing) -> None:
        """Index ``record``, in place of the listing's earlier record."""
        stale = self._by_listing.get(record.listing_id)
        if stale is not None:
            self._unplace(stale)
        self._by_listing[record.listing_id] = record
        bisect.insort(self._keys[record.key], (record.start, record.listing_id))

    def _unplace(self, record: IndexedListing) -> None:
        entries = self._keys[record.key]
        del entries[bisect.bisect_left(entries, (record.start, record.listing_id))]

    def _drop(self, listing_id: str) -> bool:
        record = self._by_listing.pop(listing_id, None)
        if record is None:
            return False
        self._provenance.pop(listing_id, None)
        self._unplace(record)
        return True

    # -- queries ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of live listings across all keys."""
        return len(self._by_listing)

    def listing(self, listing_id: str) -> IndexedListing | None:
        """One live listing by id (``None`` once sold out or delisted)."""
        return self._by_listing.get(listing_id)

    def provenance(self, listing_id: str) -> dict | None:
        """Reclamation provenance of one live listing (``None`` = minted
        fresh, not reclaimed from a no-show reservation)."""
        found = self._provenance.get(listing_id)
        return dict(found) if found is not None else None

    def listings(self) -> list[IndexedListing]:
        """Every live listing across all keys (unspecified order)."""
        return list(self._by_listing.values())

    def overlapping(self, keys, start: int, end: int) -> dict[tuple, list[IndexedListing]]:
        """Per wanted ``(isd, asn, interface, is_ingress)`` key, the live
        listings whose asset overlaps ``[start, end)`` in asset-start order,
        as of the last :meth:`sync`."""
        found: dict[tuple, list[IndexedListing]] = {}
        for key in keys:
            entries = self._keys.get(key, ())
            begun = entries[: bisect.bisect_left(entries, end, key=_START)]
            found[key] = [
                record
                for record in (self._by_listing[listing_id] for _, listing_id in begun)
                if record.expiry > start
            ]
        return found

    # -- auctions -----------------------------------------------------------------

    def open_auctions(self) -> list[OpenAuction]:
        """Every auction no settle has closed yet, window and path, in the
        order they were opened."""
        self.sync()
        return list(self._auctions.values())

    def auction(self, auction_id: str) -> OpenAuction:
        """The open auction ``auction_id``, window or path, with every leg
        contributed: what a bid or a settle of it reads.

        Raises:
            ValueError: it is not open, or a path leg is still missing.
        """
        self.sync()
        found = self._auctions.get(auction_id)
        if found is None:
            raise ValueError(f"auction {auction_id[:8]}... is not open")
        if None in found.legs:
            raise ValueError(f"auction {auction_id[:8]}... is not fully contributed")
        return found

    def find_auction(
        self, directions, start: int, expiry: int, bandwidth_kbps: int
    ) -> OpenAuction | None:
        """The earliest open auction selling exactly these directions.

        An auction covers a request when its legs, in path order, are the
        wanted ``(isd, asn, interface, is_ingress)`` keys, every leg is
        contributed, every leg's window contains ``[start, expiry)`` and the
        wanted bandwidth fits every leg's ``[minimum, total]`` range.
        """
        wanted = list(directions)
        for auction in self.open_auctions():
            if len(auction.legs) == len(wanted) and all(
                leg is not None
                and (leg["isd"], leg["asn"], leg["interface"], leg["is_ingress"]) == key
                and leg["start"] <= start
                and expiry <= leg["expiry"]
                and leg["min_bandwidth_kbps"] <= bandwidth_kbps <= leg["bandwidth_kbps"]
                for leg, key in zip(auction.legs, wanted)
            ):
                return auction
        return None

    def settlement(self, auction_id: str) -> dict | None:
        """The ``AuctionSettled`` / ``PathAuctionSettled`` payload of a
        settled auction (``None`` while it is open)."""
        self.sync()
        return self._settlements.get(auction_id)

    def _covers(self, query: ListingQuery) -> list[Candidate]:
        """Every cover of ``query`` by :class:`IndexedListing`'s rule, ranked
        by (price, aligned start, listing id)."""
        entries = self._keys.get(query.key, ())
        # only a listing whose asset starts at or before the request covers it
        begun = entries[: bisect.bisect_right(entries, query.start, key=_START)]
        covers = []
        for _, listing_id in begun:
            record = self._by_listing[listing_id]
            window = record.align(query.start, query.expiry)
            if window is None or not record.sellable(query.bandwidth_kbps):
                continue
            if query.exact_window and window != (query.start, query.expiry):
                continue
            covers.append(record.candidate(query.bandwidth_kbps, *window))
        covers.sort(key=Candidate.rank)
        return covers

    def best(self, query: ListingQuery, sync: bool = True) -> Candidate | None:
        """Cheapest cover for a query (None when uncovered).

        This is the point-query primitive: start-time slack and a budget
        cap are a :class:`~repro.marketdata.query.PathSpec`'s, which the
        :class:`~repro.marketdata.planner.PurchasePlanner` answers.

        Args:
            query: the rectangle wanted on one interface direction.
            sync: pull new ledger events first (pass ``False`` inside a
                batch that already synced).

        Returns:
            The cheapest :class:`~repro.marketdata.query.Candidate` (ties
            broken by aligned start, then listing id), or ``None``.
        """
        if sync:
            self.sync()
        began = time.perf_counter()
        covers = self._covers(query)
        self._m_query_seconds.labels("best").observe(time.perf_counter() - began)
        return covers[0] if covers else None

    def candidates(self, query: ListingQuery, limit: int) -> list[Candidate]:
        """Up to ``limit`` cheapest covers for a query, as of the last
        :meth:`sync`.

        Same contract and ordering as :meth:`best`; an uncoverable query
        returns an empty list.
        """
        began = time.perf_counter()
        covers = self._covers(query)[:limit]
        self._m_query_seconds.labels("candidates").observe(time.perf_counter() - began)
        return covers

    def price_curve(
        self,
        isd_as,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        duration: int,
        times,
    ) -> list[float]:
        """Cheapest total MIST price of ``[t, t+duration)`` per start time.

        Uncoverable windows price at ``inf`` — plotting the curve shows the
        valleys a flexible buyer can slide into.
        """
        self.sync()
        prices = []
        for moment in times:
            covers = self._covers(ListingQuery(
                isd_as, interface, is_ingress,
                int(moment), int(moment) + duration, bandwidth_kbps,
            ))
            prices.append(float(covers[0].price_mist) if covers else math.inf)
        return prices
