"""Property suite for the malleable transfer planner.

Randomized single- and multi-hop books; every plan the planner emits
must be structurally well-formed (see ``check_plan_wellformed``) and
byte-exact: a feasible plan schedules exactly the requested bytes, a
best-effort plan schedules exactly what ``InfeasibleTransfer`` reported
as achievable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfers import (
    DeadlineTransfer,
    InfeasibleTransfer,
    TransferPlan,
    TransferPlanner,
)

from tests.transfers.conftest import (
    T0,
    check_plan_wellformed,
    greedy_plan,
    leg_bytes_capacity,
    make_book,
    make_crossing,
    make_listing,
    random_instance,
)

planner = TransferPlanner(indexer=None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_wellformed_and_exact(seed):
    rng = random.Random(seed)
    book, transfer = random_instance(rng, hops=rng.choice([1, 1, 2]))
    try:
        plan = planner.plan_on_book(book, transfer)
    except InfeasibleTransfer as exc:
        best = planner.plan_on_book(book, transfer, best_effort=True)
        check_plan_wellformed(book, best)
        assert not best.meets_request
        assert best.bytes_scheduled == exc.achievable_bytes
        # Leg assembly prices each merged purchase window with a single
        # ceil, which can only undercut the per-slot ceil sum the
        # scheduler accounted with when it reported achievable spend.
        assert best.spend_mist <= exc.achievable_spend_mist
        return
    check_plan_wellformed(book, plan)
    assert plan.meets_request
    assert plan.bytes_scheduled == transfer.bytes_total
    assert plan.bytes_scheduled <= sum(leg_bytes_capacity(leg) for leg in plan.legs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_greedy_only_plans_stay_wellformed(seed):
    """Even with the exact fallback disabled, emitted plans are valid."""
    rng = random.Random(seed)
    book, transfer = random_instance(rng)
    plan = greedy_plan(book, transfer)
    check_plan_wellformed(book, plan)
    assert plan.bytes_scheduled <= transfer.bytes_total


def test_single_listing_exact_fill():
    """One listing per direction, request == full capacity: one leg,
    full rate, bytes match exactly."""
    release, deadline = T0, T0 + 600
    directions = {
        (0, True): [make_listing("i", 50, release, deadline)],
        (0, False): [make_listing("e", 60, release, deadline)],
    }
    book = make_book(directions, release, deadline)
    transfer = DeadlineTransfer(
        crossings=(make_crossing(0),),
        bytes_total=1000 * 600 * 125,
        release=release,
        deadline=deadline,
    )
    plan = planner.plan_on_book(book, transfer)
    check_plan_wellformed(book, plan)
    assert len(plan.legs) == 1
    assert plan.legs[0].rate_kbps == 1000
    assert plan.bytes_scheduled == transfer.bytes_total


def test_request_above_capacity_is_infeasible_with_achievable():
    release, deadline = T0, T0 + 600
    directions = {
        (0, True): [make_listing("i", 50, release, deadline)],
        (0, False): [make_listing("e", 60, release, deadline)],
    }
    book = make_book(directions, release, deadline)
    capacity = 1000 * 600 * 125
    transfer = DeadlineTransfer(
        crossings=(make_crossing(0),),
        bytes_total=capacity + 1,
        release=release,
        deadline=deadline,
    )
    with pytest.raises(InfeasibleTransfer) as exc:
        planner.plan_on_book(book, transfer)
    assert exc.value.achievable_bytes == capacity
    best = planner.plan_on_book(book, transfer, best_effort=True)
    assert best.bytes_scheduled == capacity
    assert not best.meets_request


def test_max_rate_cap_is_respected():
    release, deadline = T0, T0 + 600
    directions = {
        (0, True): [make_listing("i", 50, release, deadline)],
        (0, False): [make_listing("e", 60, release, deadline)],
    }
    book = make_book(directions, release, deadline)
    transfer = DeadlineTransfer(
        crossings=(make_crossing(0),),
        bytes_total=400 * 600 * 125,
        release=release,
        deadline=deadline,
        max_rate_kbps=400,
    )
    plan = planner.plan_on_book(book, transfer)
    check_plan_wellformed(book, plan)
    assert all(leg.rate_kbps <= 400 for leg in plan.legs)
    assert plan.bytes_scheduled == transfer.bytes_total


def test_empty_plan_is_empty():
    release, deadline = T0, T0 + 600
    directions = {
        (0, True): [make_listing("i", 50, release, deadline)],
        (0, False): [make_listing("e", 60, release, deadline)],
    }
    book = make_book(directions, release, deadline)
    transfer = DeadlineTransfer(
        crossings=(make_crossing(0),),
        bytes_total=1,
        release=release,
        deadline=deadline,
    )
    empty = TransferPlan(transfer, ())
    assert empty.bytes_scheduled == 0
    assert empty.spend_mist == 0
    assert empty.buy_count == 0
    assert empty.redeem_count == 0
    assert not empty.meets_request
