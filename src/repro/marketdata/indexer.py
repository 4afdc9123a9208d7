"""Event-driven market index: incremental, per-interface, vectorized.

The paper's host stack assumes an **off-chain indexer** (§3.2) between the
ledger and the buyers: hosts should never scan the whole object store to
find a listing.  :class:`MarketIndexer` consumes the marketplace's event
stream *incrementally* — ``Listed``/``Relisted`` add listings,
``Delisted`` removes them, ``Sold`` shrinks or removes the listing the
purchase carved from, ``Reclaimed`` annotates the following listing with
its no-show provenance — so the index is always a pure function of the
events applied so far and never needs a rescan.

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
import dataclasses
import time

import numpy as np

from repro.marketdata.query import (
    MICROMIST,
    Candidate,
    IndexedListing,
    ListingQuery,
)
from repro.telemetry import get_registry

_ADD_EVENTS = ("Listed", "Relisted")


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

    def add(self, record: IndexedListing) -> None:
        # A replayed Listed/Relisted for a live listing must replace, not
        # duplicate: drop the stale order entry before re-inserting, or
        # candidates() would return the listing twice (and a later remove
        # would leave a dangling order entry behind).
        stale = self.records.get(record.listing_id)
        if stale is not None:
            index = bisect.bisect_left(self._order, (stale.start, record.listing_id))
            if index < len(self._order) and self._order[index][1] == record.listing_id:
                del self._order[index]
        self.records[record.listing_id] = record
        bisect.insort(self._order, (record.start, record.listing_id))
        self._dirty = True

    def remove(self, listing_id: str) -> None:
        record = self.records.pop(listing_id, None)
        if record is None:
            return
        index = bisect.bisect_left(self._order, (record.start, listing_id))
        if index < len(self._order) and self._order[index][1] == listing_id:
            del self._order[index]
        self._dirty = True

    def update_rectangle(
        self, listing_id: str, bandwidth_kbps: int, start: int, expiry: int
    ) -> None:
        """Shrink a listing after a partial sale mutated its asset."""
        record = self.records.get(listing_id)
        if record is None:
            return
        if record.start != start:
            index = bisect.bisect_left(self._order, (record.start, listing_id))
            if index < len(self._order) and self._order[index][1] == listing_id:
                del self._order[index]
            bisect.insort(self._order, (start, listing_id))
        self.records[listing_id] = dataclasses.replace(
            record, bandwidth_kbps=bandwidth_kbps, start=start, expiry=expiry
        )
        self._dirty = True

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
        """Vectorized cover test: (valid indices, aligned windows, prices)."""
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

    def granularities(self) -> set[int]:
        return {record.granularity for record in self.records.values()}


class MarketIndexer:
    """Incremental off-chain index of one marketplace's live listings.

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
        self._keys: dict[tuple[int, int, int, bool], _KeyIndex] = {}
        self._by_listing: dict[str, IndexedListing] = {}
        # Reclamation provenance per live listing: the ``Reclaimed`` event
        # precedes its listing's ``Listed``/``Relisted`` in the same
        # transaction, so the annotation is stashed by listing id and
        # pruned when the listing leaves the index.
        self._provenance: dict[str, dict] = {}
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
        if event.event_type == "Reclaimed":
            payload = event.payload
            if payload.get("marketplace") != self.marketplace:
                return False
            self._provenance[payload["listing"]] = dict(
                payload.get("provenance") or {}
            )
            self.reclaimed_seen += 1
            if self._telemetry:
                self._m_reclaimed.inc()
            return True
        if event.event_type in _ADD_EVENTS:
            payload = event.payload
            if payload.get("marketplace") != self.marketplace:
                return False
            record = IndexedListing.from_event(payload)
            self._by_listing[record.listing_id] = record
            self._key_index(record.key).add(record)
            return True
        if event.event_type == "Delisted":
            payload = event.payload
            if payload.get("marketplace") != self.marketplace:
                return False
            # Sold/Delisted of a listing we never tracked (e.g. an indexer
            # attached mid-stream) mutates nothing and must not count as
            # applied, or events_applied stops being a progress signal.
            return self._drop(payload["listing"])
        if event.event_type == "Sold":
            payload = event.payload
            if payload.get("marketplace") != self.marketplace:
                return False
            listing_id = payload["listing"]
            if payload.get("listing_closed", True):
                return self._drop(listing_id)
            remaining = payload["remaining"]
            record = self._by_listing.get(listing_id)
            if record is None:
                return False
            self._key_index(record.key).update_rectangle(
                listing_id,
                remaining["bandwidth_kbps"],
                remaining["start"],
                remaining["expiry"],
            )
            self._by_listing[listing_id] = self._key_index(record.key).records[
                listing_id
            ]
            return True
        return False

    def _drop(self, listing_id: str) -> bool:
        record = self._by_listing.pop(listing_id, None)
        if record is None:
            return False
        self._provenance.pop(listing_id, None)
        self._key_index(record.key).remove(listing_id)
        return True

    def _key_index(self, key: tuple[int, int, int, bool]) -> _KeyIndex:
        found = self._keys.get(key)
        if found is None:
            found = _KeyIndex()
            self._keys[key] = found
        return found

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
        if query.flex_start or query.budget_mist is not None:
            raise ValueError(
                "MarketIndexer.best answers zero-flex point queries; use "
                "PurchasePlanner for flex_start/budget_mist handling"
            )
        if sync:
            self.sync()
        if not self._telemetry:
            bucket = self._keys.get(query.key)
            if bucket is None:
                return None
            return bucket.best(
                query.start, query.expiry, query.bandwidth_kbps, query.exact_window
            )
        began = time.perf_counter()
        bucket = self._keys.get(query.key)
        found = (
            None
            if bucket is None
            else bucket.best(
                query.start, query.expiry, query.bandwidth_kbps, query.exact_window
            )
        )
        self._m_query_seconds.labels("best").observe(time.perf_counter() - began)
        return found

    def candidates(
        self, query: ListingQuery, limit: int, sync: bool = True
    ) -> list[Candidate]:
        """Up to ``limit`` cheapest covers for a zero-flex query.

        Same contract and ordering as :meth:`best`; an uncoverable query
        returns an empty list.

        Raises:
            ValueError: the query carries ``flex_start``/``budget_mist``.
        """
        if query.flex_start or query.budget_mist is not None:
            raise ValueError(
                "MarketIndexer.candidates answers zero-flex point queries; "
                "use PurchasePlanner for flex_start/budget_mist handling"
            )
        if sync:
            self.sync()
        if not self._telemetry:
            bucket = self._keys.get(query.key)
            if bucket is None:
                return []
            return bucket.candidates(
                query.start, query.expiry, query.bandwidth_kbps, limit
            )
        began = time.perf_counter()
        bucket = self._keys.get(query.key)
        found = (
            []
            if bucket is None
            else bucket.candidates(
                query.start, query.expiry, query.bandwidth_kbps, limit
            )
        )
        self._m_query_seconds.labels("candidates").observe(
            time.perf_counter() - began
        )
        return found

    def granularities(self, isd_as, interface: int, is_ingress: bool) -> set[int]:
        """Distinct time granularities live on one interface direction."""
        bucket = self._keys.get((isd_as.isd, isd_as.asn, interface, is_ingress))
        return bucket.granularities() if bucket is not None else set()

    def price_curve(
        self,
        isd_as,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        duration: int,
        times,
        sync: bool = True,
    ) -> np.ndarray:
        """Cheapest total MIST price of ``[t, t+duration)`` per start time.

        Uncoverable windows price at ``inf`` — plotting the curve shows the
        valleys a flexible buyer can slide into.
        """
        if sync:
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
