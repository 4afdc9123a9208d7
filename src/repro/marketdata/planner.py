"""Price-reactive purchase planning: buy the valley, not the peak.

:class:`PurchasePlanner` turns a declarative :class:`PathSpec` into ranked
:class:`PathQuote`\\ s.  For every candidate start offset inside the flex
range it resolves each AS crossing to an (ingress, egress) listing pair
over ONE shared granule-aligned window, prices the whole path against the
indexed scarcity-adjusted listings, and ranks the results by price — so a
host with start-time slack automatically slides away from expensive peak
windows, the behaviour SIBRA-style systems and the Grid bulk-transfer
literature get from malleable reservations.

Hop resolution handles mixed granularities: each listing accepts windows
on the lattice ``anchor + k*granularity``, and for every candidate
ingress/egress pair the minimal shared window is computed directly on the
fold of the two lattices (:func:`~repro.marketdata.query.fold_lattices`:
CRT over the anchors, step = lcm of the granularities) — so 60s and 120s
listings settle on the coarser granule in one step.  When no pair admits a common window inside the assets'
validity ranges, the planner raises :class:`IncompatibleGranularity`
naming both granularities instead of an opaque :class:`ListingNotFound`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.marketdata.indexer import MarketIndexer
from repro.marketdata.query import (
    BudgetExceeded,
    Candidate,
    IncompatibleGranularity,
    ListingNotFound,
    ListingQuery,
    PathSpec,
    direction_keys,
    fold_lattices,
)

# Cheapest covering listings tried per direction when pairing a hop's
# ingress and egress; bounds the cross-pair lattice search.
_PAIR_SEARCH_LIMIT = 8


@dataclass(frozen=True)
class HopQuote:
    """One AS crossing resolved to an ingress/egress listing pair."""

    isd_as: object
    ingress: int
    egress: int
    ingress_candidate: Candidate
    egress_candidate: Candidate

    @property
    def start(self) -> int:
        return self.ingress_candidate.start

    @property
    def expiry(self) -> int:
        return self.ingress_candidate.expiry

    @property
    def price_mist(self) -> int:
        return self.ingress_candidate.price_mist + self.egress_candidate.price_mist


@dataclass(frozen=True)
class PathQuote:
    """One fully priced way to reserve the path: window shift + hop pairs."""

    start: int  # requested service start after the shift
    expiry: int
    offset: int  # seconds of shift inside the flex range
    bandwidth_kbps: int
    hops: tuple[HopQuote, ...]

    @property
    def price_mist(self) -> int:
        """The estimate: what buying every hop's two pieces will charge."""
        return sum(hop.price_mist for hop in self.hops)


class PurchasePlanner:
    """Ranked path quotes over a :class:`MarketIndexer`.

    >>> from repro.ledger.chain import Ledger
    >>> from repro.ledger.transactions import Event
    >>> from repro.scion.addresses import IsdAs
    >>> def listed(listing, interface, is_ingress, price):
    ...     return Event("Listed", {
    ...         "marketplace": "m", "listing": listing, "asset": listing,
    ...         "seller": "as-7", "price_micromist_per_unit": price,
    ...         "isd": 1, "asn": 7, "interface": interface,
    ...         "is_ingress": is_ingress, "bandwidth_kbps": 10_000,
    ...         "start": 0, "expiry": 3600, "granularity": 60,
    ...         "min_bandwidth_kbps": 100}, "tx", 1)
    >>> ledger = Ledger()
    >>> ledger.events.extend([listed("IN", 1, True, 50),
    ...                       listed("EG", 2, False, 80)])
    >>> planner = PurchasePlanner(MarketIndexer(ledger, "m"))
    >>> hop = planner.resolve_hop(IsdAs(1, 7), 1, 2, 0, 600, 1_000)
    >>> (hop.ingress_candidate.listing.listing_id,
    ...  hop.egress_candidate.listing.listing_id)
    ('IN', 'EG')
    >>> hop.price_mist  # ceil(600k units * 50µ) + ceil(600k units * 80µ)
    78
    """

    def __init__(self, indexer: MarketIndexer) -> None:
        self.indexer = indexer

    # -- single-hop resolution ----------------------------------------------------

    def resolve_hop(
        self,
        isd_as,
        ingress: int,
        egress: int,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        sync: bool = True,
    ) -> HopQuote:
        """Cheapest ingress/egress pair sharing one aligned window.

        Enumerates the ``_PAIR_SEARCH_LIMIT`` cheapest covering listings
        per direction and, for every cross pair, computes the minimal
        window covering the request that both listings' granule lattices
        accept (their intersection is CRT-recoverable, or empty when the
        anchors are incongruent).  Among feasible pairs, the cheapest at
        its joint window wins — so a cheap listing on an incompatible
        lattice cannot shadow a compatible one.  The search is bounded:
        a feasible pair ranked below the limit in BOTH directions would be
        missed, which at that depth means the market offers dozens of
        cheaper-but-incompatible listings on each side.
        """
        if sync:
            self.indexer.sync()
        ingress_candidates = self.indexer.candidates(
            ListingQuery(isd_as, ingress, True, start, expiry, bandwidth_kbps),
            limit=_PAIR_SEARCH_LIMIT,
        )
        egress_candidates = self.indexer.candidates(
            ListingQuery(isd_as, egress, False, start, expiry, bandwidth_kbps),
            limit=_PAIR_SEARCH_LIMIT,
        )
        if not ingress_candidates or not egress_candidates:
            missing = ingress if not ingress_candidates else egress
            direction = "ingress" if not ingress_candidates else "egress"
            raise ListingNotFound(
                f"no listing at {isd_as} if={missing} {direction} covers "
                f"[{start},{expiry})x{bandwidth_kbps}kbps"
            )
        best: HopQuote | None = None
        best_key: tuple | None = None
        for ingress_candidate in ingress_candidates:
            for egress_candidate in egress_candidates:
                joint = _pair_window(
                    ingress_candidate.listing, egress_candidate.listing, start, expiry
                )
                if joint is None:
                    continue
                pair = HopQuote(
                    isd_as=isd_as,
                    ingress=ingress,
                    egress=egress,
                    ingress_candidate=ingress_candidate.listing.candidate(
                        bandwidth_kbps, *joint
                    ),
                    egress_candidate=egress_candidate.listing.candidate(
                        bandwidth_kbps, *joint
                    ),
                )
                key = (
                    pair.price_mist,
                    pair.start,
                    pair.ingress_candidate.listing.listing_id,
                    pair.egress_candidate.listing.listing_id,
                )
                if best_key is None or key < best_key:
                    best, best_key = pair, key
        if best is None:
            ingress_granularity = ingress_candidates[0].listing.granularity
            egress_granularity = egress_candidates[0].listing.granularity
            raise IncompatibleGranularity(
                f"{isd_as}: ingress if={ingress} (granularity "
                f"{ingress_granularity}s) and egress if={egress} (granularity "
                f"{egress_granularity}s) admit no common aligned window covering "
                f"[{start},{expiry}); list assets on a shared granule or split "
                "them to compatible boundaries"
            )
        return best

    # -- path planning -----------------------------------------------------------

    def quote(self, spec: PathSpec) -> list[PathQuote]:
        """Every distinct priced way to cover the spec, cheapest first.

        Candidate start offsets are the *breakpoints* of the flex range:
        every hop resolution is piecewise constant in the offset — it can
        only change where the shifted window's start or expiry crosses
        some involved listing's granule lattice — so the planner
        enumerates exactly those lattice crossings (plus the range
        endpoints) instead of stepping linearly through the range.  This
        skips constant-price plateaus outright and lands on valley edges
        exactly: congruence arithmetic gives each listing's crossings in
        closed form, subsuming a per-valley binary search.  It is also
        *more complete* than the historical finest-granularity linear
        scan, which silently skipped windows of listings whose lattice
        anchor was shifted relative to the spec's start.  Quotes that
        resolve to identical listings and windows are deduplicated.

        Args:
            spec: the whole path's requirement (one entry per crossing).

        Returns:
            Non-empty list of :class:`PathQuote`, ranked by (price,
            offset).  The spec's ``budget_mist`` does NOT filter here —
            callers see over-budget quotes ranked too; :meth:`best`
            enforces the budget.

        Raises:
            ListingNotFound: no offset inside the flex range covers every
                hop (the error of the first failing offset).
            IncompatibleGranularity: some hop's listings admit no common
                aligned window at any offset.
        """
        self.indexer.sync()
        offsets = self._flex_offsets(spec)
        quotes: list[PathQuote] = []
        seen: set[tuple] = set()
        first_error: ListingNotFound | None = None
        for offset in offsets:
            try:
                hops = tuple(
                    self.resolve_hop(
                        crossing.isd_as,
                        crossing.ingress,
                        crossing.egress,
                        spec.start + offset,
                        spec.expiry + offset,
                        spec.bandwidth_kbps,
                        sync=False,
                    )
                    for crossing in spec.crossings
                )
            except ListingNotFound as error:
                if first_error is None:
                    first_error = error
                continue
            signature = tuple(
                (
                    hop.ingress_candidate.listing.listing_id,
                    hop.egress_candidate.listing.listing_id,
                    hop.start,
                    hop.expiry,
                )
                for hop in hops
            )
            if signature in seen:
                continue
            seen.add(signature)
            quotes.append(
                PathQuote(
                    start=spec.start + offset,
                    expiry=spec.expiry + offset,
                    offset=offset,
                    bandwidth_kbps=spec.bandwidth_kbps,
                    hops=hops,
                )
            )
        if not quotes:
            if first_error is not None:
                raise first_error
            raise ListingNotFound(f"no quote covers {spec}")
        quotes.sort(key=lambda quote: (quote.price_mist, quote.offset))
        return quotes

    def best(self, spec: PathSpec) -> PathQuote:
        """The cheapest quote; enforces the spec's budget cap.

        Raises:
            BudgetExceeded: the cheapest quote still exceeds
                ``spec.budget_mist``.
            ListingNotFound: nothing covers the spec (see :meth:`quote`).
        """
        cheapest = self.quote(spec)[0]
        if spec.budget_mist is not None and cheapest.price_mist > spec.budget_mist:
            raise BudgetExceeded(
                f"cheapest quote costs {cheapest.price_mist} MIST, over the "
                f"{spec.budget_mist} MIST budget (offset {cheapest.offset}s)"
            )
        return cheapest

    def _flex_offsets(self, spec: PathSpec) -> list[int]:
        """Offsets at which some hop resolution can change, sorted.

        Every quantity :meth:`resolve_hop` computes at offset ``o`` is a
        function of where ``spec.start + o`` and ``spec.expiry + o`` sit
        on each involved listing's granule lattice (aligned windows are
        floors/ceils on that lattice; coverage and joint-window outcomes
        flip only when those aligned values move).  The floor-aligned
        start moves at the offset where ``spec.start + o`` lands *on* the
        lattice (``o ≡ listing.start - spec.start (mod granularity)``);
        the ceil-aligned expiry still equals ``spec.expiry + o`` there and
        moves one second *later*, when the edge first passes the lattice
        point (``o ≡ listing.start - spec.expiry + 1``).  Between two
        consecutive such offsets of *any* involved lattice nothing
        changes, so enumerating them plus the endpoints {0, flex_start}
        visits the first offset of every constant piece an exhaustive
        step-1 scan would see.  Joint pair lattices need no extra points:
        their crossings (step = lcm, CRT anchor) are a subset of each
        member's own crossings.
        """
        flex = spec.flex_start
        offsets = {0, flex}
        involved = self.indexer.overlapping(
            set(direction_keys(spec.crossings)), spec.start, spec.expiry + flex
        )
        for listings in involved.values():
            for listing in listings:
                g = listing.granularity
                for first in (
                    (listing.start - spec.start) % g,
                    (listing.start - spec.expiry + 1) % g,
                ):
                    offsets.update(range(first, flex + 1, g))
        return sorted(offsets)


def _pair_window(first, second, start: int, expiry: int) -> tuple[int, int] | None:
    """Smallest window covering ``[start, expiry)`` aligned to BOTH listings:
    the request floored and ceiled on the fold of their lattices.  None when
    the lattices never meet or the window escapes either asset's validity
    range."""
    lattice = fold_lattices(first.lattice, second.lattice)
    if lattice is None:
        return None
    joint_start, joint_expiry = lattice.cover(start, expiry)
    if joint_start < max(first.start, second.start) or joint_expiry > min(
        first.expiry, second.expiry
    ):
        return None
    return joint_start, joint_expiry
