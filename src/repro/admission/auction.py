"""Sealed-bid per-window auctions: market-discovered prices for scarce windows.

Posted scarcity prices (:class:`~repro.admission.pricing.ScarcityPricer`)
ration a filling interface, but the *operator* still guesses the demand
curve; when demand spikes inside a single calendar window, posted prices
leave money and fairness on the table.  A sealed-bid **uniform-price
auction** per window lets the bidders reveal the curve instead: everyone
bids their own value, the market clears where supply runs out, and every
winner pays the same market-clearing price.

The module is deliberately split in two layers:

* :func:`uniform_price_clearing` — the pure clearing rule, shared verbatim
  by the on-chain marketplace contract (``market.settle_auction``) and the
  off-chain preview path, so a host can predict exactly what the ledger
  will decide;
* :class:`WindowAuction` — one window's sealed-bid book as the AS-side
  admission layer sees it: it collects bids, knows the supply it was
  seeded with, and clears against the (possibly shrunken) calendar
  headroom the :class:`~repro.admission.controller.AdmissionController`
  reports at settle time.

Clearing rule (documented here once, asserted in
``tests/admission/test_auction.py`` and ``docs/auctions.md``):

1. bids priced below the **reserve** (the scarcity-adjusted posted quote)
   are rejected outright;
2. remaining bids are sorted by ``(-price, seq)`` — highest price first,
   and among equal prices the **earlier-placed bid wins** (``seq`` is the
   arrival index, so the tie-break is deterministic and replayable);
3. bids are filled greedily: a bid is awarded iff its bandwidth still fits
   the remaining supply and awarding it would not strand a remainder
   fragment smaller than the asset's minimum bandwidth (one bidder's
   several bids may take the whole supply; ``docs/auctions.md`` says why
   there is no per-bidder cap);
4. every winner pays the same **clearing price**:
   ``min(lowest winning bid, max(reserve, highest losing bid))`` — the
   classic uniform-price rule with a reserve, clamped so no winner can be
   charged above their own bid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Bid",
    "ClearingOutcome",
    "LostBid",
    "WindowAuction",
    "uniform_price_clearing",
]


@dataclass(frozen=True)
class Bid:
    """One sealed bid: ``bandwidth_kbps`` over the window at a unit price.

    ``price_micromist_per_unit`` is the bidder's maximum willingness to pay
    per kbps-second (the same unit posted listings use), and ``seq`` is the
    arrival index the ledger assigned — the deterministic tie-breaker.
    """

    bidder: str
    bandwidth_kbps: int
    price_micromist_per_unit: int
    seq: int = 0

    def __post_init__(self) -> None:
        if self.bandwidth_kbps <= 0:
            raise ValueError("bid bandwidth must be positive")
        if self.price_micromist_per_unit <= 0:
            raise ValueError("bid price must be positive")


@dataclass(frozen=True)
class LostBid:
    """A losing bid plus the (deterministic) reason it lost."""

    bid: Bid
    reason: str


@dataclass(frozen=True)
class ClearingOutcome:
    """The result of clearing one sealed-bid window auction.

    ``winners`` is in clearing order (price desc, then arrival order);
    every winner pays ``clearing_price_micromist`` per kbps-second.
    """

    winners: tuple[Bid, ...]
    losers: tuple[LostBid, ...]
    clearing_price_micromist: int
    supply_kbps: int
    reserve_micromist: int
    awarded_kbps: int


def uniform_price_clearing(
    bids,
    supply_kbps: int,
    reserve_micromist: int,
    total_kbps: int | None = None,
    min_fragment_kbps: int = 0,
) -> ClearingOutcome:
    """Clear sealed bids under the uniform-price rule (module docstring).

    Args:
        bids: iterable of :class:`Bid` (any order; sorting is internal).
        supply_kbps: bandwidth actually for sale — the auctioned amount,
            possibly clamped down by lost calendar headroom at settle time.
        reserve_micromist: minimum acceptable unit price; bids below it are
            rejected and it floors the clearing price.
        total_kbps: bandwidth of the underlying asset (defaults to
            ``supply_kbps``).  The fragment rule below is computed against
            this, because the *asset* remainder is what must stay sellable.
        min_fragment_kbps: the asset's minimum bandwidth.  A bid is skipped
            when awarding it would leave ``0 < remainder < min`` of the
            asset — such a fragment could neither be listed nor split.

    Returns:
        A :class:`ClearingOutcome`; ``winners`` is empty when nothing
        clears (zero bids, all below reserve, or zero supply), in which
        case ``clearing_price_micromist`` equals the reserve.

    Raises:
        ValueError: on negative supply or a reserve below 1.

    >>> bids = [Bid("a", 400, 90, seq=0), Bid("b", 400, 70, seq=1),
    ...         Bid("c", 400, 50, seq=2)]
    >>> out = uniform_price_clearing(bids, supply_kbps=800, reserve_micromist=20)
    >>> [bid.bidder for bid in out.winners]
    ['a', 'b']
    >>> out.clearing_price_micromist  # highest losing bid sets the price
    50
    """
    if supply_kbps < 0:
        raise ValueError("supply must be non-negative")
    if reserve_micromist < 1:
        raise ValueError("reserve price must be at least 1 micromist")
    total = supply_kbps if total_kbps is None else int(total_kbps)
    ordered = sorted(bids, key=lambda b: (-b.price_micromist_per_unit, b.seq))
    winners: list[Bid] = []
    losers: list[LostBid] = []
    awarded = 0
    best_losing = 0
    for bid in ordered:
        if bid.price_micromist_per_unit < reserve_micromist:
            losers.append(LostBid(bid, "below reserve"))
            continue
        if awarded + bid.bandwidth_kbps > supply_kbps:
            losers.append(LostBid(bid, "supply exhausted"))
            best_losing = max(best_losing, bid.price_micromist_per_unit)
            continue
        remainder = total - (awarded + bid.bandwidth_kbps)
        if 0 < remainder < min_fragment_kbps:
            losers.append(LostBid(bid, "would strand a sub-minimum fragment"))
            best_losing = max(best_losing, bid.price_micromist_per_unit)
            continue
        winners.append(bid)
        awarded += bid.bandwidth_kbps
    if winners:
        lowest_winning = winners[-1].price_micromist_per_unit
        clearing = min(lowest_winning, max(reserve_micromist, best_losing))
    else:
        clearing = reserve_micromist
    return ClearingOutcome(
        winners=tuple(winners),
        losers=tuple(losers),
        clearing_price_micromist=int(clearing),
        supply_kbps=int(supply_kbps),
        reserve_micromist=int(reserve_micromist),
        awarded_kbps=int(awarded),
    )


@dataclass
class WindowAuction:
    """One sealed-bid auction for a single (interface, direction, window).

    The AS-side admission view of an on-chain auction: it records the
    offered bandwidth, the scarcity-seeded reserve and the bids as the AS
    mirrors them off the ledger's ``BidPlaced`` events (the ledger
    validated each and assigned its ``seq``).  ``clear``
    applies :func:`uniform_price_clearing`, optionally against a *smaller*
    supply than was offered — the controller clamps by live calendar
    headroom at settle time, so a window that lost headroom between open
    and settle cannot be oversold.

    >>> auction = WindowAuction(interface=1, is_ingress=True,
    ...                         start=0, end=600, offered_kbps=1000,
    ...                         reserve_micromist=10)
    >>> auction.bids.append(Bid("alice", 600, 80, seq=0))
    >>> auction.bids.append(Bid("bob", 600, 60, seq=1))
    >>> outcome = auction.clear()            # only alice fits 1000 kbps
    >>> [bid.bidder for bid in outcome.winners], outcome.clearing_price_micromist
    (['alice'], 60)
    >>> outcome = auction.clear(supply_kbps=400)   # headroom shrank: nobody fits
    >>> outcome.winners
    ()
    """

    interface: int
    is_ingress: bool
    start: float
    end: float
    offered_kbps: int
    reserve_micromist: int
    min_fragment_kbps: int = 0
    bids: list[Bid] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("auction window must not be empty")
        if self.offered_kbps <= 0:
            raise ValueError("offered bandwidth must be positive")
        if self.reserve_micromist < 1:
            raise ValueError("reserve price must be at least 1 micromist")

    def clear(self, supply_kbps: int | None = None) -> ClearingOutcome:
        """Clear the book under the uniform-price rule.

        Args:
            supply_kbps: bandwidth actually available at settle time;
                defaults to the offered amount.  Values above the offer are
                clamped down — an auction can lose supply (headroom), never
                gain it.

        Returns:
            The :class:`ClearingOutcome`; the book is left intact, so a
            preview clear and the authoritative settle see the same bids.
        """
        supply = self.offered_kbps if supply_kbps is None else int(supply_kbps)
        supply = max(0, min(supply, self.offered_kbps))
        return uniform_price_clearing(
            self.bids,
            supply_kbps=supply,
            reserve_micromist=self.reserve_micromist,
            total_kbps=self.offered_kbps,
            min_fragment_kbps=self.min_fragment_kbps,
        )
