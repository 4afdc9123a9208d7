"""Event-driven market index: incremental, per-interface, vectorized.

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

Listings are bucketed per ``(isd, asn, interface, direction)`` key; each
bucket keeps its listings sorted by asset start and lazily compiles them
into parallel numpy arrays (the same compile-on-demand idiom as
``repro.admission.calendar``).  A rectangle-cover query bisects the sorted
starts for the candidate prefix (``O(log n)`` selection) and prices every
candidate in one vectorized pass — granule alignment, minimum-bandwidth
rules and ceil pricing exactly mirror the market contract, so the quoted
price is the price ``buy`` will charge.

Ties are broken deterministically by (price, aligned start, listing id);
:mod:`repro.marketdata.naive` implements the same contract by full-ledger
scan for differential testing.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import time

import numpy as np

from repro.marketdata.query import (
    MICROMIST,
    Candidate,
    IndexedListing,
    ListingQuery,
    OpenAuction,
)
from repro.telemetry import get_registry

_ADD_EVENTS = ("Listed", "Relisted")
# event type -> the payload key that names the auction
_AUCTION_EVENTS = {
    "AuctionOpened": "auction",
    "AuctionSettled": "auction",
    "PathAuctionOpened": "path_auction",
    "PathLegContributed": "path_auction",
    "PathAuctionSettled": "path_auction",
}


class _KeyIndex:
    """All live listings of one (isd, asn, interface, direction) key."""

    __slots__ = (
        "records",
        "_order",
        "_dirty",
        "_ids",
        "_starts",
        "_expiries",
        "_bandwidths",
        "_min_bws",
        "_granularities",
        "_unit_prices",
    )

    def __init__(self) -> None:
        self.records: dict[str, IndexedListing] = {}
        self._order: list[tuple[int, str]] = []  # (start, listing_id), sorted
        self._dirty = False
        self._compile([])

    # -- mutation ---------------------------------------------------------------

    def _unorder(self, start: int, listing_id: str) -> None:
        index = bisect.bisect_left(self._order, (start, listing_id))
        if index < len(self._order) and self._order[index][1] == listing_id:
            del self._order[index]

    def add(self, record: IndexedListing) -> None:
        # A replayed Listed/Relisted for a live listing must replace, not
        # duplicate: drop the stale order entry before re-inserting, or
        # candidates() would return the listing twice (and a later remove
        # would leave a dangling order entry behind).
        stale = self.records.get(record.listing_id)
        if stale is not None:
            self._unorder(stale.start, record.listing_id)
        self.records[record.listing_id] = record
        bisect.insort(self._order, (record.start, record.listing_id))
        self._dirty = True

    def remove(self, listing_id: str) -> None:
        record = self.records.pop(listing_id, None)
        if record is None:
            return
        self._unorder(record.start, listing_id)
        self._dirty = True

    def update_rectangle(self, listing_id: str, remaining: dict) -> IndexedListing | None:
        """Shrink a listing after a partial sale mutated its asset to the
        ``bandwidth_kbps`` / ``start`` / ``expiry`` that ``Sold`` reports as
        ``remaining``; returns the shrunk record (``None`` for a listing this
        bucket never held)."""
        record = self.records.get(listing_id)
        if record is None:
            return None
        if record.start != remaining["start"]:
            self._unorder(record.start, listing_id)
            bisect.insort(self._order, (remaining["start"], listing_id))
        record = dataclasses.replace(record, **remaining)
        self.records[listing_id] = record
        self._dirty = True
        return record

    # -- compiled arrays ----------------------------------------------------------

    def _compile(self, records: list[IndexedListing]) -> None:
        self._ids = [record.listing_id for record in records]
        self._starts = np.array([r.start for r in records], dtype=np.int64)
        self._expiries = np.array([r.expiry for r in records], dtype=np.int64)
        self._bandwidths = np.array([r.bandwidth_kbps for r in records], dtype=np.int64)
        self._min_bws = np.array([r.min_bandwidth_kbps for r in records], dtype=np.int64)
        self._granularities = np.array([r.granularity for r in records], dtype=np.int64)
        self._unit_prices = np.array(
            [r.price_micromist_per_unit for r in records], dtype=np.int64
        )

    def _compiled(self) -> None:
        if self._dirty:
            self._compile([self.records[listing_id] for _, listing_id in self._order])
            self._dirty = False

    # -- queries ------------------------------------------------------------------

    def _evaluate(self, start: int, expiry: int, bandwidth_kbps: int, exact_window: bool):
        """Vectorized cover test: (valid indices, aligned windows, prices).

        The array form of :meth:`IndexedListing.align`, ``sellable`` and
        :func:`~repro.marketdata.query.price_mist`, which
        :mod:`repro.marketdata.naive` applies row by row as the reference.
        """
        if not self.records or expiry <= start:
            return None
        self._compiled()
        # Only listings whose asset starts at or before the query can cover
        # it: O(log n) prefix selection, then one vectorized pricing pass.
        prefix = int(np.searchsorted(self._starts, start, side="right"))
        if prefix == 0:
            return None
        anchors = self._starts[:prefix]
        granules = self._granularities[:prefix]
        aligned_start = anchors + (start - anchors) // granules * granules
        over = (expiry - anchors) % granules
        aligned_expiry = np.where(over == 0, expiry, expiry + granules - over)
        remainder = self._bandwidths[:prefix] - bandwidth_kbps
        ok = (
            (aligned_expiry <= self._expiries[:prefix])
            & (remainder >= 0)
            & (bandwidth_kbps >= self._min_bws[:prefix])
            & ((remainder == 0) | (remainder >= self._min_bws[:prefix]))
        )
        if exact_window:
            ok &= (aligned_start == start) & (aligned_expiry == expiry)
        if not ok.any():
            return None
        units = bandwidth_kbps * (aligned_expiry - aligned_start)
        prices = -(-units * self._unit_prices[:prefix] // MICROMIST)
        return np.flatnonzero(ok), aligned_start, aligned_expiry, prices

    def _candidate(self, position: int, aligned_start, aligned_expiry, prices) -> Candidate:
        return Candidate(
            listing=self.records[self._ids[position]],
            price_mist=int(prices[position]),
            start=int(aligned_start[position]),
            expiry=int(aligned_expiry[position]),
        )

    def best(
        self, start: int, expiry: int, bandwidth_kbps: int, exact_window: bool = False
    ) -> Candidate | None:
        """Cheapest listing covering the rectangle; deterministic tie-break."""
        evaluated = self._evaluate(start, expiry, bandwidth_kbps, exact_window)
        if evaluated is None:
            return None
        valid, aligned_start, aligned_expiry, prices = evaluated
        best_price = prices[valid].min()
        tie = valid[prices[valid] == best_price]
        earliest = aligned_start[tie].min()
        tie = tie[aligned_start[tie] == earliest]
        position = min((int(i) for i in tie), key=lambda i: self._ids[i])
        return self._candidate(position, aligned_start, aligned_expiry, prices)

    def candidates(
        self, start: int, expiry: int, bandwidth_kbps: int, limit: int
    ) -> list[Candidate]:
        """Up to ``limit`` cheapest covers, same ordering as :meth:`best`."""
        evaluated = self._evaluate(start, expiry, bandwidth_kbps, False)
        if evaluated is None:
            return []
        valid, aligned_start, aligned_expiry, prices = evaluated
        order = sorted(
            (int(i) for i in valid),
            key=lambda i: (int(prices[i]), int(aligned_start[i]), self._ids[i]),
        )[:limit]
        return [
            self._candidate(position, aligned_start, aligned_expiry, prices)
            for position in order
        ]


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
        self._keys: dict[tuple[int, int, int, bool], _KeyIndex] = (
            collections.defaultdict(_KeyIndex)
        )
        self._by_listing: dict[str, IndexedListing] = {}
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
        self._telemetry = registry.enabled
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
        if self._telemetry and scanned:
            self._record_events(applied, scanned)
        return applied

    def _record_events(self, applied: int, scanned: int) -> None:
        self._m_events.labels("applied").inc(applied)
        self._m_events.labels("skipped").inc(scanned - applied)
        if applied:
            self._g_live.set(len(self._by_listing))
            for (isd, asn, interface, is_ingress), bucket in self._keys.items():
                self._g_bucket.labels(
                    isd, asn, interface, "ingress" if is_ingress else "egress"
                ).set(len(bucket.records))

    def _apply(self, event) -> bool:
        kind, payload = event.event_type, event.payload
        if payload.get("marketplace") != self.marketplace:
            return False
        if kind == "Reclaimed":
            self._provenance[payload["listing"]] = dict(
                payload.get("provenance") or {}
            )
            self.reclaimed_seen += 1
            if self._telemetry:
                self._m_reclaimed.inc()
            return True
        if kind in _ADD_EVENTS:
            record = IndexedListing.from_event(payload)
            self._by_listing[record.listing_id] = record
            self._keys[record.key].add(record)
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
            self._by_listing[listing_id] = self._keys[record.key].update_rectangle(
                listing_id, payload["remaining"]
            )
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

    def _drop(self, listing_id: str) -> bool:
        record = self._by_listing.pop(listing_id, None)
        if record is None:
            return False
        self._provenance.pop(listing_id, None)
        self._keys[record.key].remove(listing_id)
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
        listings whose asset overlaps ``[start, end)`` — read off that key's
        bucket, as of the last :meth:`sync`."""
        found: dict[tuple, list[IndexedListing]] = {}
        for key in keys:
            bucket = self._keys.get(key)
            found[key] = [
                record
                for record in (bucket.records.values() if bucket is not None else ())
                if record.start < end and record.expiry > start
            ]
        return found

    # -- auctions -----------------------------------------------------------------

    def open_auctions(self) -> list[OpenAuction]:
        """Every auction no settle has closed yet, window and path, in the
        order they were opened."""
        self.sync()
        return list(self._auctions.values())

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

    def _point_query(self, op: str, query: ListingQuery, sync: bool, ask, nothing):
        """The shared body of :meth:`best` and :meth:`candidates`: refuse
        planner-only fields, sync, ``ask`` the query's bucket (``nothing``
        when no listing was ever indexed there), time the answer."""
        if query.flex_start or query.budget_mist is not None:
            raise ValueError(
                f"MarketIndexer.{op} answers zero-flex point queries; use "
                "PurchasePlanner for flex_start/budget_mist handling"
            )
        if sync:
            self.sync()
        began = time.perf_counter() if self._telemetry else 0.0
        bucket = self._keys.get(query.key)
        found = nothing if bucket is None else ask(bucket)
        if self._telemetry:
            self._m_query_seconds.labels(op).observe(time.perf_counter() - began)
        return found

    def best(self, query: ListingQuery, sync: bool = True) -> Candidate | None:
        """Cheapest cover for a zero-flex query (None when uncovered).

        This is the point-query primitive: ``flex_start`` and
        ``budget_mist`` are planner concerns, so queries carrying them are
        rejected rather than silently answered without slack or cap.

        Args:
            query: the rectangle wanted on one interface direction.
            sync: pull new ledger events first (pass ``False`` inside a
                batch that already synced).

        Returns:
            The cheapest :class:`~repro.marketdata.query.Candidate` (ties
            broken by aligned start, then listing id), or ``None``.

        Raises:
            ValueError: the query carries ``flex_start``/``budget_mist``.
        """
        return self._point_query(
            "best", query, sync,
            lambda bucket: bucket.best(
                query.start, query.expiry, query.bandwidth_kbps, query.exact_window
            ),
            None,
        )

    def candidates(
        self, query: ListingQuery, limit: int, sync: bool = True
    ) -> list[Candidate]:
        """Up to ``limit`` cheapest covers for a zero-flex query.

        Same contract and ordering as :meth:`best`; an uncoverable query
        returns an empty list.

        Raises:
            ValueError: the query carries ``flex_start``/``budget_mist``.
        """
        return self._point_query(
            "candidates", query, sync,
            lambda bucket: bucket.candidates(
                query.start, query.expiry, query.bandwidth_kbps, limit
            ),
            [],
        )

    def price_curve(
        self,
        isd_as,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        duration: int,
        times,
    ) -> np.ndarray:
        """Cheapest total MIST price of ``[t, t+duration)`` per start time.

        Uncoverable windows price at ``inf`` — plotting the curve shows the
        valleys a flexible buyer can slide into.
        """
        self.sync()
        bucket = self._keys.get((isd_as.isd, isd_as.asn, interface, is_ingress))
        prices = np.full(len(times), np.inf)
        if bucket is None:
            return prices
        for position, time in enumerate(times):
            found = bucket.best(int(time), int(time) + duration, bandwidth_kbps)
            if found is not None:
                prices[position] = found.price_mist
        return prices
