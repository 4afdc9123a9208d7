"""Adversarial transfer instances aimed at the planner's search edges."""

from __future__ import annotations

import random

from repro.transfers import (
    BYTES_PER_KBPS_SECOND,
    DeadlineTransfer,
    TransferPlanner,
)
from repro.transfers.oracle import offline_optimum

from tests.transfers.conftest import (
    T0,
    check_plan_wellformed,
    make_book,
    make_crossing,
    make_listing,
    random_instance,
)

planner = TransferPlanner(indexer=None)


def _transfer(bytes_total, release, deadline, **kw):
    return DeadlineTransfer(
        crossings=(make_crossing(0),),
        bytes_total=bytes_total,
        release=release,
        deadline=deadline,
        **kw,
    )


def test_valley_narrower_than_granule_is_invisible():
    """A dirt-cheap listing whose whole validity fits inside one common
    granule covers no grid slot: the planner must not try to use it, and
    the oracle must agree it adds nothing."""
    release, deadline = T0, T0 + 300
    directions = {
        (0, True): [
            make_listing("base-i", 80, release, deadline, granularity=60),
            # 40 seconds of validity, granule-aligned to its own g=20
            # lattice but spanning no full 60-second common slot.
            make_listing(
                "valley", 1, T0 + 40, T0 + 80, granularity=20
            ),
        ],
        (0, False): [
            make_listing("base-e", 80, release, deadline, granularity=60),
        ],
    }
    book = make_book(directions, release, deadline)
    assert book.lattice.step == 60
    for slot in book.slots:
        cover = book.covering(slot)
        assert all(
            listing.listing_id != "valley"
            for listings in cover.values()
            for listing in listings
        )
    transfer = _transfer(1000 * 300 * BYTES_PER_KBPS_SECOND, release, deadline)
    plan = planner.plan_on_book(book, transfer)
    check_plan_wellformed(book, plan)
    used = {
        piece.listing_id
        for leg in plan.legs
        for hop in leg.hops
        for piece in hop.ingress_pieces + hop.egress_pieces
    }
    assert "valley" not in used
    oracle = offline_optimum(book, transfer)
    assert oracle.feasible
    assert plan.bytes_scheduled == oracle.bytes


def test_plateau_only_book_collapses_to_one_segment():
    """Uniform full-span listings: the whole horizon is one covering
    plateau, and segment sharing must return the same options as the
    per-slot search."""
    release, deadline = T0, T0 + 600
    directions = {
        (0, True): [make_listing("i", 50, release, deadline)],
        (0, False): [make_listing("e", 50, release, deadline)],
    }
    book = make_book(directions, release, deadline)
    assert len(book._segments()) == 1
    target = 1000 * 600 * BYTES_PER_KBPS_SECOND // 2
    assert book.all_slot_options(target_bytes=target) == [
        book.slot_options(i, None, None, target) for i in range(len(book.slots))
    ]
    plan = planner.plan_on_book(book, _transfer(target, release, deadline))
    check_plan_wellformed(book, plan)
    assert plan.meets_request


def test_plateau_skip_equals_naive_on_staggered_book():
    """Segment caching must be invisible: staggered boundaries, varied
    prices, clipped edge slots — identical option sets either way."""
    release, deadline = T0, T0 + 480
    directions = {
        (0, True): [
            make_listing("a", 90, release, T0 + 240, granularity=60),
            make_listing("b", 30, T0 + 120, deadline, granularity=60),
        ],
        (0, False): [
            make_listing("c", 50, release, deadline, granularity=60),
            make_listing("d", 20, T0 + 180, T0 + 420, granularity=60),
        ],
    }
    book = make_book(directions, release, deadline)
    assert len(book._segments()) > 1
    target = 1000 * 480 * BYTES_PER_KBPS_SECOND // 3
    assert book.all_slot_options(target_bytes=target) == [
        book.slot_options(i, None, None, target) for i in range(len(book.slots))
    ]


def test_segment_sharing_equals_the_per_slot_derivation_on_random_books():
    """``all_slot_options`` derives one option list per (segment, clip) class;
    slot by slot through the public ``slot_options`` is what it replaced."""
    segments = set()
    for seed in range(60):
        rng = random.Random(seed)
        book, transfer = random_instance(rng, hops=rng.choice([1, 2]))
        segments.add(len(book._segments()))
        assert book.all_slot_options(
            max_rate_kbps=transfer.max_rate_kbps, target_bytes=transfer.bytes_total
        ) == [
            book.slot_options(i, None, transfer.max_rate_kbps, transfer.bytes_total)
            for i in range(len(book.slots))
        ]
    assert len(segments) > 3  # one-plateau books and staggered ones both occur


def test_listing_expiring_mid_plan_forces_stitching():
    """The cheap ingress listing dies halfway: a full-rate plan must
    stitch two listings into one leg, adjacent pieces, distinct ids."""
    release, deadline = T0, T0 + 600
    directions = {
        (0, True): [
            make_listing("cheap", 10, release, T0 + 300, granularity=60),
            make_listing("dear", 90, release, deadline, granularity=60),
        ],
        (0, False): [
            make_listing("e", 40, release, deadline, granularity=60),
        ],
    }
    book = make_book(directions, release, deadline)
    transfer = _transfer(1000 * 600 * BYTES_PER_KBPS_SECOND, release, deadline)
    plan = planner.plan_on_book(book, transfer)
    check_plan_wellformed(book, plan)
    assert plan.meets_request
    pieces = [
        piece for leg in plan.legs for hop in leg.hops
        for piece in hop.ingress_pieces
    ]
    assert {p.listing_id for p in pieces} == {"cheap", "dear"}
    boundary = [p for p in pieces if p.listing_id == "cheap"]
    assert max(p.expiry for p in boundary) == T0 + 300
