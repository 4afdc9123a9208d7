"""Declarative marketplace queries and the records the indexer serves.

The discovery API is a handful of small dataclasses:

* :class:`ListingQuery` — one interface direction's requirement: a time
  window, a bandwidth, optional start-time slack (``flex_start``), an
  optional budget cap and an exact-window flag;
* :class:`PathSpec` — the same for a whole multi-hop path (one entry per
  AS crossing);
* :class:`IndexedListing` — the indexer's view of one live listing (the
  asset rectangle plus the posted unit price), and with it the contract's
  align / carve / ceil-price rule as every off-chain planner applies it;
* :class:`Candidate` — one priced answer: a listing, the granule-aligned
  window that would actually be bought, and its total price;
* :class:`OpenAuction` — one open auction, window or path, as its legs.

A listing accepts windows on its :class:`Lattice` ``start + k*granularity``;
two listings share the windows on the fold of their lattices:

>>> fold_lattices(Lattice(0, 60), Lattice(0, 120))
Lattice(anchor=0, step=120)
>>> fold_lattices(Lattice(0, 60), Lattice(15, 90)) is None  # incongruent
True
>>> fold_lattices(Lattice(30, 60), Lattice(0, 90))
Lattice(anchor=90, step=180)
>>> Lattice(90, 180).cover(100, 300)
(90, 450)

The exceptions shared across the marketdata/controlplane split live here
too, so the host client can re-export them without import cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.scion.addresses import IsdAs

MICROMIST = 1_000_000  # price unit: micromist per kbps-second


def price_mist(bandwidth_kbps: int, seconds: int, unit_price_micromist: int) -> int:
    """MIST price of ``bandwidth_kbps`` for ``seconds`` at a unit price per
    kbps-second, rounded up — the one scalar spelling, off chain, of what
    ``market.buy`` and an auction settlement charge.

    >>> price_mist(2_000, 60, 50), price_mist(1, 1, 1)
    (6, 1)
    """
    return -(-bandwidth_kbps * seconds * unit_price_micromist // MICROMIST)


def direction_keys(crossings) -> list[tuple[int, int, int, bool]]:
    """The index keys a path touches, in path order: each crossing's
    ``(ingress, True)`` then ``(egress, False)``."""
    return [
        (crossing.isd_as.isd, crossing.isd_as.asn, interface, is_ingress)
        for crossing in crossings
        for interface, is_ingress in ((crossing.ingress, True), (crossing.egress, False))
    ]


@dataclass(frozen=True)
class Lattice:
    """The set of instants ``anchor + k*step`` (k any integer)."""

    anchor: int
    step: int

    def cover(self, start: int, expiry: int) -> tuple[int, int]:
        """Smallest window with both ends on the lattice around ``[start, expiry)``."""
        floor = self.anchor + (start - self.anchor) // self.step * self.step
        ceiling = self.anchor - (self.anchor - expiry) // self.step * self.step
        return floor, ceiling


def fold_lattices(first: Lattice, second: Lattice) -> Lattice | None:
    """Intersection of two lattices, or None when they never meet.

    The intersection is empty iff the anchors are incongruent modulo
    ``gcd(step1, step2)``; otherwise it is a lattice with step
    ``lcm(step1, step2)`` whose anchor CRT recovers.  The returned anchor
    is normalized into ``[0, step)``.
    """
    g = math.gcd(first.step, second.step)
    if (second.anchor - first.anchor) % g:
        return None
    step = first.step // g * second.step  # lcm
    m = second.step // g
    # first.anchor + first.step * t is on the second lattice (t = 0 when m == 1)
    t = (second.anchor - first.anchor) // g * pow(first.step // g, -1, m) % m
    return Lattice((first.anchor + first.step * t) % step, step)


class ListingNotFound(LookupError):
    """No listing covers the requested interface/time/bandwidth rectangle."""


class IncompatibleGranularity(ListingNotFound):
    """Ingress and egress listings cannot agree on one aligned window.

    Raised instead of a bare :class:`ListingNotFound` when both directions
    of a hop are individually coverable but their time granularities admit
    no common granule-aligned window inside the assets' validity ranges.
    Subclasses :class:`ListingNotFound` so legacy ``except ListingNotFound``
    handlers keep working.
    """


class BudgetExceeded(RuntimeError):
    """A quote or purchase plan costs more than the caller's budget cap."""


# What an asset sells, as every event and object that advertises one spells it
# (the market contract's ``_rectangle``).
RECTANGLE_FIELDS = (
    "isd", "asn", "interface", "is_ingress", "bandwidth_kbps", "start",
    "expiry", "granularity", "min_bandwidth_kbps",
)


@dataclass(frozen=True)
class IndexedListing:
    """One live listing as tracked by the :class:`MarketIndexer`."""

    listing_id: str
    asset_id: str
    marketplace: str
    seller: str
    price_micromist_per_unit: int
    isd: int
    asn: int
    interface: int
    is_ingress: bool
    bandwidth_kbps: int
    start: int
    expiry: int
    granularity: int
    min_bandwidth_kbps: int

    @classmethod
    def from_ledger(
        cls, listing_id: str, listing_payload: dict, asset_payload: dict
    ) -> "IndexedListing":
        """Build from a listing object plus its asset object (rescans)."""
        return cls(
            listing_id=listing_id,
            asset_id=listing_payload["asset"],
            marketplace=listing_payload["marketplace"],
            seller=listing_payload["seller"],
            price_micromist_per_unit=listing_payload["price_micromist_per_unit"],
            **{field: asset_payload[field] for field in RECTANGLE_FIELDS},
        )

    @classmethod
    def from_event(cls, payload: dict) -> "IndexedListing":
        """Build from a Listed/Relisted event snapshot — the producer shape
        defined by ``MarketContract._listing_snapshot``: the listing object's
        fields and its asset's rectangle in one payload."""
        return cls.from_ledger(payload["listing"], payload, payload)

    @property
    def key(self) -> tuple[int, int, int, bool]:
        return (self.isd, self.asn, self.interface, self.is_ingress)

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.start % self.granularity, self.granularity)

    def align(self, start: int, expiry: int) -> tuple[int, int] | None:
        """Smallest granule-aligned window covering ``[start, expiry)``.

        Alignment is relative to this listing's asset anchor (its own
        ``start``); returns None when the request is empty or the aligned
        window escapes the asset's validity interval.
        """
        if expiry <= start:
            return None
        buy_start, buy_expiry = self.lattice.cover(start, expiry)
        if buy_start < self.start or buy_expiry > self.expiry:
            return None
        return buy_start, buy_expiry

    def sellable(self, bandwidth_kbps: int) -> bool:
        """Can ``bandwidth_kbps`` be carved out without violating minimums?"""
        remainder = self.bandwidth_kbps - bandwidth_kbps
        if bandwidth_kbps < self.min_bandwidth_kbps or remainder < 0:
            return False
        return remainder == 0 or remainder >= self.min_bandwidth_kbps

    def price_for(self, bandwidth_kbps: int, start: int, expiry: int) -> int:
        """MIST price of buying this rectangle (ceil, like the contract)."""
        return price_mist(bandwidth_kbps, expiry - start, self.price_micromist_per_unit)

    def candidate(self, bandwidth_kbps: int, start: int, expiry: int) -> "Candidate":
        """Buying exactly this rectangle from the listing, priced."""
        return Candidate(
            self, self.price_for(bandwidth_kbps, start, expiry), start, expiry
        )


@dataclass(frozen=True)
class Candidate:
    """One priced discovery answer: buy ``listing`` over ``[start, expiry)``."""

    listing: IndexedListing
    price_mist: int
    start: int
    expiry: int

    def as_tuple(self) -> tuple[str, int, int, int]:
        """The answer as a plain ``(listing id, price, start, expiry)`` tuple."""
        return (self.listing.listing_id, self.price_mist, self.start, self.expiry)


# What an auctioned leg says on chain — a ``PathAuction`` object's leg entry,
# an ``Auction`` object's own fields beside the rectangle of its asset.
LEG_FIELDS = (
    "asset", "seller", "reserve_micromist_per_unit", "share_cap_kbps",
    *RECTANGLE_FIELDS,
)


@dataclass(frozen=True)
class OpenAuction:
    """One open auction: its legs in path order, each the :data:`LEG_FIELDS`
    of the rectangle on offer (``None`` until its AS contributed it).  A window
    auction is the one-leg case; ``is_path`` only says which pair of contract
    entry points (``place_bid`` or ``place_path_bid``) its book answers to."""

    auction_id: str
    is_path: bool
    legs: tuple[dict | None, ...]

    @staticmethod
    def leg(source: dict) -> dict:
        """The leg an event payload or an object payload describes."""
        return {field: source[field] for field in LEG_FIELDS}


def _require_request(what: str, request) -> None:
    """What a :class:`ListingQuery` and a :class:`PathSpec` both refuse."""
    if request.expiry <= request.start:
        raise ValueError(f"{what} window must not be empty")
    if request.bandwidth_kbps <= 0:
        raise ValueError("bandwidth must be positive")
    if request.flex_start < 0:
        raise ValueError("flex_start must be non-negative")


@dataclass(frozen=True)
class ListingQuery:
    """What a host wants on ONE interface direction.

    ``flex_start`` is how many seconds later than ``start`` the window may
    begin (the duration is fixed); a planner slides the window inside the
    flex range looking for cheaper granules.  ``exact_window`` demands the
    granule-aligned window equal the requested one — used to match an
    egress asset to an already-resolved ingress window.
    """

    isd_as: IsdAs
    interface: int
    is_ingress: bool
    start: int
    expiry: int
    bandwidth_kbps: int
    flex_start: int = 0
    budget_mist: int | None = None
    exact_window: bool = False

    def __post_init__(self) -> None:
        _require_request("query", self)

    @property
    def key(self) -> tuple[int, int, int, bool]:
        return (self.isd_as.isd, self.isd_as.asn, self.interface, self.is_ingress)


@dataclass(frozen=True)
class PathSpec:
    """A whole path's reservation requirement (one entry per AS crossing)."""

    crossings: tuple
    start: int
    expiry: int
    bandwidth_kbps: int
    flex_start: int = 0
    budget_mist: int | None = None

    def __post_init__(self) -> None:
        _require_request("spec", self)
        object.__setattr__(self, "crossings", tuple(self.crossings))

    @staticmethod
    def from_crossings(
        crossings,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        flex_start: int = 0,
        budget_mist: int | None = None,
    ) -> "PathSpec":
        return PathSpec(
            crossings=tuple(crossings),
            start=start,
            expiry=expiry,
            bandwidth_kbps=bandwidth_kbps,
            flex_start=flex_start,
            budget_mist=budget_mist,
        )
