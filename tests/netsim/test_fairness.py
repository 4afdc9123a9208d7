"""The fairness yardsticks on hand-built outcome lists: Jain's index over
granted bandwidth and allocative efficiency over valuations."""

import dataclasses

import pytest

from repro.netsim import BuyerOutcome, admitted, efficiency, jain_index, rejected

KBPS = 2500


def _buyers(served: list[bool]) -> list[BuyerOutcome]:
    return [
        BuyerOutcome(
            buyer=f"buyer-{index}",
            arm="posted",
            requested_kbps=KBPS,
            granted_kbps=KBPS if ok else 0,
            quoted_price_micromist=50,
            paid_mist=10 if ok else 0,
            refusal=None if ok else "priced out",
            metrics={},
        )
        for index, ok in enumerate(served)
    ]


def test_served_and_refused_split_the_buyers():
    buyers = _buyers([True, False, True])
    assert [b.buyer for b in admitted(buyers)] == ["buyer-0", "buyer-2"]
    assert [b.buyer for b in rejected(buyers)] == ["buyer-1"]


def test_jain_index_is_one_for_equal_shares():
    assert jain_index(_buyers([True] * 4)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_jain_index_is_one_over_n_when_one_buyer_takes_everything(n):
    assert jain_index(_buyers([True] + [False] * (n - 1))) == pytest.approx(1 / n)


def test_jain_index_is_one_when_nobody_is_served():
    assert jain_index(_buyers([False] * 3)) == 1.0


VALUATIONS = {"buyer-0": 100, "buyer-1": 300, "buyer-2": 200, "buyer-3": 400}


def test_efficiency_is_one_when_the_top_valuations_win():
    # room for two: buyer-3 (400) and buyer-1 (300) are the best pair
    buyers = _buyers([False, True, False, True])
    assert efficiency(buyers, VALUATIONS, 2 * KBPS) == pytest.approx(1.0)


def test_efficiency_falls_below_one_when_arrival_order_wins():
    # the first two arrivals win: 100 + 300 of the best 700
    buyers = _buyers([True, True, False, False])
    assert efficiency(buyers, VALUATIONS, 2 * KBPS) == pytest.approx(400 / 700)


def test_efficiency_refuses_buyers_asking_different_bandwidths():
    # the best allocation is priced in equal slots; unequal asks have none
    buyers = _buyers([True, True])
    buyers[1] = dataclasses.replace(buyers[1], requested_kbps=2 * KBPS)
    with pytest.raises(ValueError, match=f"{KBPS} and {2 * KBPS} kbps"):
        efficiency(buyers, VALUATIONS, 2 * KBPS)
