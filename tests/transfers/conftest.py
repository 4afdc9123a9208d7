"""Builders for synthetic transfer books and randomized instances."""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.marketdata import IndexedListing
from repro.transfers import (
    BYTES_PER_KBPS_SECOND,
    MAX_REDEEM_SECONDS,
    DeadlineTransfer,
    TransferBook,
)

T0 = 1_700_000_000


def make_crossing(hop: int = 0):
    return SimpleNamespace(isd_as=f"1-{hop}", ingress=1, egress=2)


def make_listing(
    lid: str,
    price: int,
    start: int,
    expiry: int,
    bandwidth_kbps: int = 1000,
    granularity: int = 60,
    min_bandwidth_kbps: int = 100,
) -> IndexedListing:
    """The index's own record; a book reads its rectangle and unit price only."""
    return IndexedListing(
        listing_id=lid,
        asset_id=f"asset-{lid}",
        marketplace="m",
        seller="s",
        price_micromist_per_unit=price,
        isd=1,
        asn=0,
        interface=1,
        is_ingress=True,
        bandwidth_kbps=bandwidth_kbps,
        start=start,
        expiry=expiry,
        granularity=granularity,
        min_bandwidth_kbps=min_bandwidth_kbps,
    )


def make_book(directions: dict, release: int, deadline: int) -> TransferBook:
    """Book over explicit per-direction listing lists.

    ``directions`` maps ``(hop, is_ingress)`` to listings; crossings are
    synthesized for every hop index present.
    """
    hops = sorted({hop for hop, _ in directions})
    return TransferBook(
        [make_crossing(hop) for hop in hops], release, deadline, directions
    )


def random_instance(rng: random.Random, hops: int = 1):
    """One random solvable-scale instance: ``(book, transfer)``.

    Every direction gets one base listing spanning the whole window
    (books are never trivially empty) plus up to two extras with random
    granularity in {30, 60, 120}, granule-aligned windows, and random
    prices/bandwidths — anchors all congruent to T0, so lattices always
    fold.  Instances stay small enough for the exact oracle.
    """
    horizon = rng.choice([240, 360, 480, 600])
    release = T0
    deadline = T0 + horizon
    directions: dict = {}
    serial = 0
    for hop in range(hops):
        for is_ingress in (True, False):
            base_bw = rng.choice([800, 1000, 2000])
            listings = [
                make_listing(
                    f"b{serial}",
                    rng.choice([40, 50, 80]),
                    release,
                    deadline,
                    bandwidth_kbps=base_bw,
                    granularity=rng.choice([30, 60]),
                )
            ]
            serial += 1
            for _ in range(rng.randrange(0, 3)):
                g = rng.choice([30, 60, 120])
                start = release + rng.randrange(0, horizon // g) * g
                span = rng.randrange(1, max(2, (deadline - start) // g)) * g
                listings.append(
                    make_listing(
                        f"x{serial}",
                        rng.choice([10, 20, 30, 100]),
                        start,
                        start + span,
                        bandwidth_kbps=rng.choice([500, 1000, 3000]),
                        granularity=g,
                    )
                )
                serial += 1
            directions[(hop, is_ingress)] = listings
    book = make_book(directions, release, deadline)
    # Target between "easy" and "impossible" relative to the thinnest
    # base listing, so the mix covers feasible and infeasible cases.
    min_base_bw = min(
        listings[0].bandwidth_kbps for listings in directions.values()
    )
    capacity = min_base_bw * horizon * BYTES_PER_KBPS_SECOND
    bytes_total = max(1, int(capacity * rng.uniform(0.2, 1.4)))
    budget = None
    if rng.random() < 0.4:
        budget = int(capacity * 60 * rng.uniform(0.00001, 0.0002))
    max_rate = None
    if rng.random() < 0.3:
        max_rate = rng.choice([500, 900, 2000])
    transfer = DeadlineTransfer(
        crossings=tuple(make_crossing(hop) for hop in range(hops)),
        bytes_total=bytes_total,
        release=release,
        deadline=deadline,
        budget_mist=budget,
        max_rate_kbps=max_rate,
    )
    return book, transfer


def check_plan_wellformed(book: TransferBook, plan) -> None:
    """Structural invariants every plan must satisfy against its book."""
    transfer = plan.transfer
    step = book.lattice.step
    legs = sorted(plan.legs, key=lambda leg: leg.start)
    for earlier, later in zip(legs, legs[1:]):
        assert earlier.expiry <= later.start, "legs overlap in time"
    total_scheduled = 0
    for leg in legs:
        assert leg.expiry - leg.start <= MAX_REDEEM_SECONDS
        assert (leg.start - book.lattice.anchor) % step == 0
        assert (leg.expiry - book.lattice.anchor) % step == 0
        assert leg.effective_start == max(leg.start, transfer.release)
        assert leg.effective_expiry == min(leg.expiry, transfer.deadline)
        assert 0 < leg.bytes_scheduled <= leg.bytes_capacity
        if transfer.max_rate_kbps is not None:
            assert leg.rate_kbps <= transfer.max_rate_kbps
        total_scheduled += leg.bytes_scheduled
        assert len(leg.hops) == len(transfer.crossings)
        for hop_index, hop in enumerate(leg.hops):
            for pieces in (hop.ingress_pieces, hop.egress_pieces):
                assert pieces, "a direction of a leg has no purchase"
                assert pieces[0].start == leg.start
                assert pieces[-1].expiry == leg.expiry
                for left, right in zip(pieces, pieces[1:]):
                    assert left.expiry == right.start, "pieces not adjacent"
                for piece in pieces:
                    listing = book.by_id[piece.listing_id]
                    # inside the asset, both ends on its granule lattice
                    window = (piece.start, piece.expiry)
                    assert listing.align(*window) == window
                    assert listing.sellable(leg.rate_kbps)
                    assert piece.price_mist == listing.price_for(
                        leg.rate_kbps, piece.start, piece.expiry
                    )
    assert total_scheduled == plan.bytes_scheduled
    assert plan.spend_mist == sum(leg.price_mist for leg in plan.legs)
    if transfer.budget_mist is not None:
        assert plan.spend_mist <= transfer.budget_mist
