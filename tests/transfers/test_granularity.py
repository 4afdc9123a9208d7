"""Mixed-granularity stitching and the ``IncompatibleGranularity`` edges."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marketdata import IndexedListing, Lattice, fold_lattices
from repro.marketdata.planner import _pair_window
from repro.transfers import (
    BYTES_PER_KBPS_SECOND,
    DeadlineTransfer,
    IncompatibleGranularity,
    TransferPlanner,
)
from repro.transfers.oracle import offline_optimum

from tests.transfers.conftest import (
    T0,
    check_plan_wellformed,
    make_book,
    make_crossing,
    make_listing,
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


def test_congruent_mixed_granularities_fold_to_lcm():
    """60s and 120s listings with congruent anchors: the common grid is
    the 120s lcm, and plans stitch across both listings on it."""
    release, deadline = T0, T0 + 720
    directions = {
        (0, True): [
            make_listing("g60", 20, release, T0 + 360, granularity=60),
            make_listing("g120", 80, release, deadline, granularity=120),
        ],
        (0, False): [
            make_listing("e", 40, release, deadline, granularity=60),
        ],
    }
    book = make_book(directions, release, deadline)
    assert book.lattice.step == 120
    assert all(expiry - start == 120 for start, expiry in book.slots)
    transfer = _transfer(1000 * 720 * BYTES_PER_KBPS_SECOND, release, deadline)
    plan = planner.plan_on_book(book, transfer)
    check_plan_wellformed(book, plan)
    assert plan.meets_request
    ingress_ids = {
        piece.listing_id
        for leg in plan.legs
        for hop in leg.hops
        for piece in hop.ingress_pieces
    }
    assert ingress_ids == {"g60", "g120"}
    assert offline_optimum(book, transfer).feasible


def test_incongruent_anchors_raise_with_named_classes():
    """g=60 anchored at T0 vs g=90 anchored at T0+15: gcd is 30 and the
    anchors differ by 15, so no common aligned grid exists."""
    release, deadline = T0, T0 + 720
    directions = {
        (0, True): [
            make_listing("a", 20, release, deadline, granularity=60),
            make_listing("b", 30, T0 + 15, T0 + 15 + 630, granularity=90),
        ],
        (0, False): [
            make_listing("e", 40, release, deadline, granularity=60),
        ],
    }
    assert (
        fold_lattices(Lattice(T0 % 60, 60), Lattice((T0 + 15) % 90, 90))
        is None
    )
    with pytest.raises(IncompatibleGranularity) as exc:
        make_book(directions, release, deadline)
    message = str(exc.value)
    assert "60s@" in message and "90s@" in message
    assert "no common aligned grid" in message


def test_common_granule_exceeding_direction_supply_raises():
    """lcm(60, 120) = 120s, but every egress listing spans only 60s:
    no egress slot could ever be purchased on the common grid."""
    release, deadline = T0, T0 + 720
    directions = {
        (0, True): [
            make_listing("i", 20, release, deadline, granularity=120),
        ],
        (0, False): [
            make_listing(f"e{j}", 40, T0 + 60 * j, T0 + 60 * (j + 1))
            for j in range(12)
        ],
    }
    with pytest.raises(IncompatibleGranularity) as exc:
        make_book(directions, release, deadline)
    assert "exceeds every listing on crossing 0 egress" in str(exc.value)


def test_common_granule_above_redeem_cap_raises():
    """A granule coarser than the 65535s redeem duration cap can never
    produce a redeemable window."""
    g = 70_000
    release, deadline = T0, T0 + 2 * g
    directions = {
        (0, True): [
            make_listing("i", 20, release, deadline, granularity=g),
        ],
        (0, False): [
            make_listing("e", 40, release, deadline, granularity=g),
        ],
    }
    with pytest.raises(IncompatibleGranularity) as exc:
        make_book(directions, release, deadline)
    assert "redeem duration cap" in str(exc.value)


def test_shifted_but_congruent_anchor_folds():
    """Anchors T0 and T0+30 under g=60 and g=90: congruent mod gcd=30,
    so the fold succeeds with step lcm=180 and a shifted anchor."""
    release, deadline = T0, T0 + 1080
    directions = {
        (0, True): [
            make_listing("a", 20, release, deadline, granularity=60),
            make_listing("b", 10, T0 + 30, T0 + 930, granularity=90),
        ],
        (0, False): [
            make_listing("e", 40, release, deadline, granularity=60),
        ],
    }
    book = make_book(directions, release, deadline)
    assert book.lattice.step == 180
    transfer = _transfer(
        1000 * 360 * BYTES_PER_KBPS_SECOND, release, deadline
    )
    plan = planner.plan_on_book(book, transfer)
    check_plan_wellformed(book, plan)
    assert plan.meets_request


# -- the pair lattice under the posted planner ---------------------------------


def _asset(anchor: int, granularity: int, granules: int) -> IndexedListing:
    """A listing selling ``[anchor, anchor + granules * granularity)``."""
    return IndexedListing(
        listing_id="L", asset_id="A", marketplace="m", seller="s",
        price_micromist_per_unit=50, isd=1, asn=7, interface=1, is_ingress=True,
        bandwidth_kbps=1000, start=anchor, expiry=anchor + granules * granularity,
        granularity=granularity, min_bandwidth_kbps=100,
    )


_assets = st.builds(
    _asset,
    anchor=st.integers(0, 400),
    granularity=st.sampled_from([7, 20, 30, 45, 60, 90, 120]),
    granules=st.integers(1, 40),
)


@settings(max_examples=300, deadline=None)
@given(first=_assets, second=_assets, start=st.integers(0, 2_000), length=st.integers(1, 900))
def test_a_pair_window_is_the_fold_floored_and_ceiled_and_what_brute_force_finds(
    first, second, start, length
):
    """The smallest window around ``[start, expiry)`` that both listings sell:
    by the planner — the fold of the two lattices, floored and ceiled — and
    by trying every instant."""
    expiry = start + length
    lo, hi = max(first.start, second.start), min(first.expiry, second.expiry)
    shared = [
        instant
        for instant in range(lo, hi + 1)
        if (instant - first.start) % first.granularity == 0
        and (instant - second.start) % second.granularity == 0
    ]
    floors = [instant for instant in shared if instant <= start]
    ceilings = [instant for instant in shared if instant >= expiry]
    brute = (max(floors), min(ceilings)) if floors and ceilings else None
    assert _pair_window(first, second, start, expiry) == brute
