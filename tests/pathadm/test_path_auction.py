"""Combinatorial path clearing: all-or-nothing over per-leg books."""

import pytest

from repro.admission.auction import Bid
from repro.pathadm import (
    LegSupply,
    combinatorial_path_clearing,
    path_escrow_mist,
)


def legs(*supplies, reserve=10, **kwargs):
    return [LegSupply(supply_kbps=s, reserve_micromist=reserve, **kwargs) for s in supplies]


def winner_payment_mist(outcome, bid, duration_seconds):
    """MIST one winner pays: per-leg ceil pricing, summed over legs."""
    return sum(
        -(-bid.bandwidth_kbps * duration_seconds * price // 1_000_000)
        for price in outcome.clearing_prices_micromist
    )


def test_single_leg_matches_uniform_price_rule():
    bids = [Bid("a", 400, 90, seq=0), Bid("b", 400, 70, seq=1),
            Bid("c", 400, 50, seq=2)]
    out = combinatorial_path_clearing(bids, legs(800))
    assert [b.bidder for b in out.winners] == ["a", "b"]
    assert out.clearing_prices_micromist == (50,)  # highest losing bid


def test_all_or_nothing_rejects_partial_winners():
    # b wins leg 0 comfortably but cannot fit leg 1 -> loses everywhere.
    bids = [Bid("a", 400, 90, seq=0), Bid("b", 400, 70, seq=1)]
    out = combinatorial_path_clearing(bids, legs(800, 500))
    assert [b.bidder for b in out.winners] == ["a"]
    (lost,) = out.losers
    assert lost.bid.bidder == "b" and lost.leg == 1
    assert lost.reason == "supply exhausted"
    # Every final leg outcome awards exactly the path winners.
    for outcome in out.leg_outcomes:
        assert [b.bidder for b in outcome.winners] == ["a"]


def test_evicting_a_partial_frees_supply_for_others():
    # Round 1: rich (600) + mid (300) fill leg 0's 900 kbps and squeeze out
    # poor; rich busts leg 1's 400 kbps, so both rich and poor are partial.
    # The highest-priced partial (rich) is evicted first — freeing leg 0 —
    # and round 2 finds mid + poor complete on both legs.
    bids = [
        Bid("rich", 600, 90, seq=0),
        Bid("mid", 300, 80, seq=1),
        Bid("poor", 100, 60, seq=2),
    ]
    out = combinatorial_path_clearing(bids, legs(900, 400))
    assert [b.bidder for b in out.winners] == ["mid", "poor"]
    assert out.rounds == 2
    assert out.losers[0].bid.bidder == "rich" and out.losers[0].leg == 1
    assert out.losers[0].reason == "supply exhausted"


def test_below_reserve_on_any_leg_loses_path_wide():
    bids = [Bid("a", 100, 15, seq=0)]
    out = combinatorial_path_clearing(
        bids, [LegSupply(500, reserve_micromist=10), LegSupply(500, reserve_micromist=20)]
    )
    assert not out.winners
    (lost,) = out.losers
    assert lost.leg == 1 and lost.reason == "below reserve"
    # An uncleared leg's price sits at its reserve.
    assert out.clearing_prices_micromist == (10, 20)


def test_one_bidder_may_take_every_leg_whole():
    bids = [Bid("hog", 300, 90, seq=0), Bid("hog", 300, 85, seq=1),
            Bid("meek", 300, 50, seq=2)]
    out = combinatorial_path_clearing(bids, [LegSupply(600, 10), LegSupply(600, 10)])
    winners = [(b.bidder, b.seq) for b in out.winners]
    assert winners == [("hog", 0), ("hog", 1)]
    assert [(l.bid.bidder, l.leg, l.reason) for l in out.losers] == [
        ("meek", 0, "supply exhausted")
    ]


def test_empty_legs_rejected():
    with pytest.raises(ValueError):
        combinatorial_path_clearing([Bid("a", 100, 10)], [])


def test_no_bids_clears_empty_at_reserves():
    out = combinatorial_path_clearing([], legs(500, 500, reserve=33))
    assert not out.winners and out.losers == ()
    assert out.clearing_prices_micromist == (33, 33)


def test_escrow_always_covers_payment():
    duration = 3600
    bids = [Bid(f"b{i}", 200 + 100 * i, 40 + 17 * i, seq=i) for i in range(6)]
    leg_set = legs(700, 500, 600, reserve=25)
    out = combinatorial_path_clearing(bids, leg_set)
    assert out.winners
    for bid in out.winners:
        escrow = path_escrow_mist(
            bid.bandwidth_kbps, duration, bid.price_micromist_per_unit, len(leg_set)
        )
        payment = winner_payment_mist(out, bid, duration)
        assert 0 <= payment <= escrow


def test_winner_never_pays_above_own_bid_per_leg():
    bids = [Bid("a", 400, 90, seq=0), Bid("b", 200, 55, seq=1)]
    out = combinatorial_path_clearing(bids, legs(600, 600))
    for bid in out.winners:
        for price in out.clearing_prices_micromist:
            assert price <= bid.price_micromist_per_unit
