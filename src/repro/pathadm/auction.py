"""Combinatorial path auctions: one bid, every hop, all-or-nothing.

A path bidder does not want *some* hops — bandwidth on four of five legs
is worthless.  A path bid is therefore one
:class:`~repro.admission.auction.Bid` — the window auction's own record —
read as ``bandwidth_kbps`` on **every** leg of the path at one maximum unit
price per leg, backed by one escrow (:func:`path_escrow_mist`), and it
either wins on **all** legs or loses entirely.

Clearing composes the existing pure per-window rule
(:func:`repro.admission.auction.uniform_price_clearing`, shared verbatim
with the on-chain contract) with a path-level accept/reject pass:

1. clear the live bids on every leg independently under the leg's own
   supply, reserve and fragment rule;
2. a **partial** bid — one that won on some legs but lost on at least
   one — violates all-or-nothing: it can never be completed, yet it
   holds supply hostage on the legs it won.  The highest-priced partial
   bid (ties: latest arrival) is evicted from *all* books, recording the
   first leg that rejected it and why;
3. repeat — evicting a partial frees supply on the legs it had won,
   which can turn other partials into full winners and lower clearing
   prices — until every remaining bid either wins on **every** leg or
   loses on every leg.  Evictions are one per round and bids are never
   re-admitted, so the loop terminates in at most ``len(bids)`` rounds.

Bids that lose on every leg stay in the books: they are ordinary
uniform-price losers whose presence supports the per-leg clearing
prices.  Every winner pays the final per-leg clearing prices summed over
legs (ceil-priced per leg, exactly like posted listings), which is never
more than its own bid — the per-leg rule already clamps each leg's
clearing price to the lowest winning bid there.

>>> legs = [LegSupply(supply_kbps=800, reserve_micromist=10),
...         LegSupply(supply_kbps=500, reserve_micromist=10)]
>>> bids = [Bid("a", 400, 90, seq=0), Bid("b", 400, 70, seq=1)]
>>> out = combinatorial_path_clearing(bids, legs)
>>> [bid.bidder for bid in out.winners]   # both fit leg 0; only a fits leg 1
['a']
>>> out.losers[0].bid.bidder, out.losers[0].leg
('b', 1)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.admission.auction import (
    Bid,
    ClearingOutcome,
    uniform_price_clearing,
)

__all__ = [
    "LegSupply",
    "LostPathBid",
    "PathClearingOutcome",
    "combinatorial_path_clearing",
    "path_escrow_mist",
]

MICROMIST = 1_000_000


@dataclass(frozen=True)
class LegSupply:
    """One leg's clearing inputs, as its AS reported them at settle time."""

    supply_kbps: int
    reserve_micromist: int
    total_kbps: int | None = None
    min_fragment_kbps: int = 0


@dataclass(frozen=True)
class LostPathBid:
    """A losing path bid, the first leg that rejected it, and why."""

    bid: Bid
    leg: int
    reason: str


@dataclass(frozen=True)
class PathClearingOutcome:
    """The all-or-nothing result of clearing one combinatorial path auction.

    ``leg_outcomes`` holds the final round's per-leg
    :class:`~repro.admission.auction.ClearingOutcome`; each leg's winners
    are exactly ``winners`` (the all-legs survivors), so the leg clearing
    prices in ``clearing_prices_micromist`` are consistent across legs.
    """

    winners: tuple[Bid, ...]
    losers: tuple[LostPathBid, ...]
    leg_outcomes: tuple[ClearingOutcome, ...]
    clearing_prices_micromist: tuple[int, ...]
    rounds: int


def path_escrow_mist(
    bandwidth_kbps: int,
    duration_seconds: int,
    price_micromist_per_unit: int,
    num_legs: int,
) -> int:
    """Escrow locking a path bid: worst-case payment on every leg.

    Per leg the worst case is the bid's own unit price (a leg's clearing
    price never exceeds it), ceil-priced like every listing, so the
    escrow always covers the final payment and the refund
    ``escrow - payment`` is never negative.
    """
    per_leg = -(
        -bandwidth_kbps * duration_seconds * price_micromist_per_unit // MICROMIST
    )
    return per_leg * num_legs


def combinatorial_path_clearing(
    bids, legs
) -> PathClearingOutcome:
    """Clear path bids all-or-nothing over per-leg uniform-price books.

    Args:
        bids: iterable of :class:`~repro.admission.auction.Bid` (any order).
        legs: iterable of :class:`LegSupply`, one per leg in path order.

    Returns:
        A :class:`PathClearingOutcome`; when nothing survives every leg,
        ``winners`` is empty and each leg's clearing price equals its
        reserve.

    Raises:
        ValueError: no legs, or a leg with negative supply / reserve
            below 1 (propagated from the per-leg rule).
    """
    legs = tuple(legs)
    if not legs:
        raise ValueError("a path auction needs at least one leg")
    live: list[Bid] = sorted(bids, key=lambda b: b.seq)
    evicted: list[LostPathBid] = []
    rounds = 0
    while True:
        rounds += 1
        leg_outcomes = tuple(
            uniform_price_clearing(
                live,
                supply_kbps=leg.supply_kbps,
                reserve_micromist=leg.reserve_micromist,
                total_kbps=leg.total_kbps,
                min_fragment_kbps=leg.min_fragment_kbps,
            )
            for leg in legs
        )
        winning_seqs = [
            {bid.seq for bid in outcome.winners} for outcome in leg_outcomes
        ]
        first_loss: dict[int, tuple[int, str]] = {}
        for leg_index, outcome in enumerate(leg_outcomes):
            for lost in outcome.losers:
                first_loss.setdefault(lost.bid.seq, (leg_index, lost.reason))
        partials = [
            bid
            for bid in live
            if bid.seq in first_loss
            and any(bid.seq in winners for winners in winning_seqs)
        ]
        if not partials:
            break
        victim = max(
            partials, key=lambda b: (b.price_micromist_per_unit, b.seq)
        )
        leg_index, reason = first_loss[victim.seq]
        evicted.append(LostPathBid(bid=victim, leg=leg_index, reason=reason))
        live = [bid for bid in live if bid.seq != victim.seq]
    all_leg_winners = set.intersection(*winning_seqs) if winning_seqs else set()
    losers = list(evicted)
    losers.extend(
        LostPathBid(bid=bid, leg=first_loss[bid.seq][0], reason=first_loss[bid.seq][1])
        for bid in live
        if bid.seq not in all_leg_winners
    )
    return PathClearingOutcome(
        winners=tuple(bid for bid in live if bid.seq in all_leg_winners),
        losers=tuple(losers),
        leg_outcomes=leg_outcomes,
        clearing_prices_micromist=tuple(
            outcome.clearing_price_micromist for outcome in leg_outcomes
        ),
        rounds=rounds,
    )
