"""Sealed-bid uniform-price clearing: rule, edge cases, controller wiring."""

import pytest

from repro.admission import (
    ACTIVE,
    AUCTION,
    POSTED,
    AdmissionController,
    Bid,
    ScarcityPricer,
    WindowAuction,
    uniform_price_clearing,
)


def bid(name, bw, price, seq):
    return Bid(bidder=name, bandwidth_kbps=bw, price_micromist_per_unit=price, seq=seq)


def revenue_mist(outcome, duration_seconds):
    """What the winners pay: ``ceil(bw * duration * clearing / 1e6)`` each,
    the marketplace contract's ceil pricing."""
    return sum(
        -(-b.bandwidth_kbps * duration_seconds * outcome.clearing_price_micromist // 1_000_000)
        for b in outcome.winners
    )


class TestUniformPriceClearing:
    def test_winners_pay_the_highest_losing_bid(self):
        bids = [bid("a", 400, 90, 0), bid("b", 400, 70, 1), bid("c", 400, 50, 2)]
        out = uniform_price_clearing(bids, supply_kbps=800, reserve_micromist=20)
        assert [b.bidder for b in out.winners] == ["a", "b"]
        assert out.clearing_price_micromist == 50  # c's losing price
        assert out.awarded_kbps == 800

    def test_no_losers_clears_at_reserve(self):
        bids = [bid("a", 400, 90, 0), bid("b", 400, 70, 1)]
        out = uniform_price_clearing(bids, supply_kbps=800, reserve_micromist=20)
        assert len(out.winners) == 2
        assert out.clearing_price_micromist == 20

    def test_zero_bids_clears_empty_at_reserve(self):
        out = uniform_price_clearing([], supply_kbps=800, reserve_micromist=33)
        assert out.winners == ()
        assert out.clearing_price_micromist == 33
        assert out.awarded_kbps == 0

    def test_all_bids_below_reserve_lose(self):
        bids = [bid("a", 400, 10, 0), bid("b", 400, 19, 1)]
        out = uniform_price_clearing(bids, supply_kbps=800, reserve_micromist=20)
        assert out.winners == ()
        assert {lost.reason for lost in out.losers} == {"below reserve"}
        # Below-reserve demand must NOT set the clearing price.
        assert out.clearing_price_micromist == 20

    def test_tie_at_the_clearing_price_breaks_by_arrival_order(self):
        """Two equal-priced bids, supply for one: the earlier seq wins."""
        bids = [bid("late", 600, 70, 1), bid("early", 600, 70, 0)]
        out = uniform_price_clearing(bids, supply_kbps=600, reserve_micromist=20)
        assert [b.bidder for b in out.winners] == ["early"]
        assert out.losers[0].bid.bidder == "late"
        # The loser's equal price becomes the clearing price — the winner
        # pays exactly the tied amount, never more than its own bid.
        assert out.clearing_price_micromist == 70

    def test_tie_break_is_by_seq_not_input_order(self):
        bids = [bid("second", 600, 70, 5), bid("first", 600, 70, 2)]
        out = uniform_price_clearing(bids, supply_kbps=600, reserve_micromist=20)
        assert [b.bidder for b in out.winners] == ["first"]

    def test_greedy_skips_too_wide_and_fills_with_later_bid(self):
        bids = [bid("a", 600, 90, 0), bid("wide", 500, 80, 1), bid("thin", 400, 60, 2)]
        out = uniform_price_clearing(bids, supply_kbps=1000, reserve_micromist=20)
        assert [b.bidder for b in out.winners] == ["a", "thin"]
        reasons = {lost.bid.bidder: lost.reason for lost in out.losers}
        assert reasons["wide"] == "supply exhausted"
        # The skipped bid is the marginal demand: it sets the price, clamped
        # to the lowest winning bid so no winner pays above its own bid.
        assert out.clearing_price_micromist == 60

    def test_clearing_clamped_to_lowest_winning_bid(self):
        """A high-priced too-wide loser cannot push winners above their bids."""
        bids = [
            bid("whale", 500, 100, 0),
            bid("wide", 600, 95, 1),  # skipped for supply despite high price
            bid("small", 500, 40, 2),
        ]
        out = uniform_price_clearing(bids, supply_kbps=1000, reserve_micromist=20)
        assert [b.bidder for b in out.winners] == ["whale", "small"]
        assert out.clearing_price_micromist == 40  # not 95

    def test_one_bidder_may_take_the_whole_supply(self):
        bids = [bid("whale", 400, 90, 0), bid("whale", 400, 80, 1), bid("other", 400, 30, 2)]
        out = uniform_price_clearing(bids, supply_kbps=800, reserve_micromist=20)
        winners = [(b.bidder, b.seq) for b in out.winners]
        assert winners == [("whale", 0), ("whale", 1)]
        assert out.awarded_kbps == 800
        assert {lost.reason for lost in out.losers} == {"supply exhausted"}

    def test_min_fragment_rule_protects_the_remainder(self):
        """Awarding a bid may not strand an unsellable asset fragment."""
        bids = [bid("a", 950, 90, 0), bid("b", 900, 80, 1)]
        out = uniform_price_clearing(
            bids,
            supply_kbps=1000,
            reserve_micromist=20,
            total_kbps=1000,
            min_fragment_kbps=100,
        )
        # 950 would leave 50 < 100 stranded; 900 leaves a listable 100.
        assert [b.bidder for b in out.winners] == ["b"]
        assert out.losers[0].reason == "would strand a sub-minimum fragment"

    def test_zero_supply_rejects_everything(self):
        bids = [bid("a", 400, 90, 0)]
        out = uniform_price_clearing(bids, supply_kbps=0, reserve_micromist=20)
        assert out.winners == ()
        assert out.losers[0].reason == "supply exhausted"

    def test_revenue_uses_ceil_pricing(self):
        bids = [bid("a", 333, 90, 0), bid("b", 333, 70, 1)]
        out = uniform_price_clearing(bids, supply_kbps=700, reserve_micromist=20)
        assert out.clearing_price_micromist == 20
        # ceil(333 * 600 * 20 / 1e6) = ceil(3.996) = 4, per winner
        assert revenue_mist(out, 600) == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="supply"):
            uniform_price_clearing([], supply_kbps=-1, reserve_micromist=20)
        with pytest.raises(ValueError, match="reserve"):
            uniform_price_clearing([], supply_kbps=10, reserve_micromist=0)
        with pytest.raises(ValueError, match="bandwidth"):
            Bid("a", 0, 10)
        with pytest.raises(ValueError, match="price"):
            Bid("a", 10, 0)


class TestWindowAuction:
    def test_clear_preserves_the_book(self):
        auction = WindowAuction(1, True, 0, 600, 1000, 10)
        auction.bids.append(bid("a", 400, 50, 0))
        first = auction.clear()
        second = auction.clear()
        assert first == second  # preview == settle on an unchanged book

    def test_supply_clamped_to_offer(self):
        auction = WindowAuction(1, True, 0, 600, 1000, 10)
        auction.bids.append(bid("a", 1000, 50, 0))
        out = auction.clear(supply_kbps=5000)  # cannot exceed the offer
        assert out.supply_kbps == 1000

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WindowAuction(1, True, 600, 600, 1000, 10)


class TestControllerAuctionMode:
    def test_default_mode_is_posted(self):
        controller = AdmissionController(1000)
        assert controller.allocation_mode(1, True) == POSTED
        with pytest.raises(ValueError, match="posted"):
            controller.open_auction(1, True, 500, 0, 600, 50)

    def test_per_interface_mode(self):
        controller = AdmissionController(1000, auction_interfaces={(1, True)})
        assert controller.allocation_mode(1, True) == AUCTION
        assert controller.allocation_mode(1, False) == POSTED
        assert controller.allocation_mode(2, True) == POSTED

    def test_auction_everywhere(self):
        """Every direction named is in auction mode, both of one interface too."""
        controller = AdmissionController(1000, auction_interfaces={(7, True), (7, False)})
        assert controller.allocation_mode(7, True) == AUCTION
        assert controller.allocation_mode(7, False) == AUCTION

    def test_reserve_seeded_by_scarcity_quote(self):
        controller = AdmissionController(
            1000, pricer=ScarcityPricer(), auction_interfaces={(1, True)}
        )
        # Half-fill the issued calendar, then open: reserve carries the
        # scarcity multiplier of the pre-auction utilization.
        assert controller.admit_issue(1, True, 500, 0, 600).admitted
        auction = controller.open_auction(1, True, 500, 0, 600, 50)
        assert auction.reserve_micromist == controller.quote(50, 1, True, 0, 600)
        assert auction.reserve_micromist > 50

    def test_duplicate_window_rejected_and_close_reopens(self):
        controller = AdmissionController(1000, auction_interfaces={(1, True)})
        controller.open_auction(1, True, 500, 0, 600, 50)
        with pytest.raises(ValueError, match="already open"):
            controller.open_auction(1, True, 500, 0, 600, 50)
        assert controller.auction_for(1, True, 0, 600) is not None
        controller.close_auction(1, True, 0, 600)
        assert controller.auction_for(1, True, 0, 600) is None
        controller.open_auction(1, True, 500, 0, 600, 50)

    def test_settle_supply_clamps_by_lost_active_headroom(self):
        """A window that loses headroom before settle sells less."""
        controller = AdmissionController(1000, auction_interfaces={(1, True)})
        auction = controller.open_auction(1, True, 800, 0, 600, 50)
        auction.bids.append(bid("a", 500, 90, 0))
        auction.bids.append(bid("b", 300, 80, 1))
        # A direct grant claims live capacity between open and settle.
        assert controller.admit_reservation(1, True, 600, 0, 600).admitted
        supply = controller.settle_supply(1, True, 0, 600, auction.offered_kbps)
        assert supply == 400  # 1000 capacity - 600 granted
        out = auction.clear(supply)
        assert [b.bidder for b in out.winners] == ["b"]
        assert {lost.bid.bidder for lost in out.losers} == {"a"}

    def test_settle_supply_never_negative(self):
        controller = AdmissionController(1000, auction_interfaces={(1, True)})
        assert controller.admit_reservation(1, True, 1000, 0, 600).admitted
        assert controller.settle_supply(1, True, 0, 600, 800) == 0

    def test_cleared_winners_fit_the_active_calendar(self):
        """End to end at the admission layer: no oversell is possible."""
        controller = AdmissionController(1000, auction_interfaces={(1, True)})
        auction = controller.open_auction(1, True, 1000, 0, 600, 50)
        for index in range(6):
            auction.bids.append(bid(f"h{index}", 300, 100 - index, index))
        out = auction.clear(controller.settle_supply(1, True, 0, 600, 1000))
        for winner in out.winners:
            assert controller.admit_reservation(
                1, True, winner.bandwidth_kbps, 0, 600, tag=winner.bidder
            ).admitted
        peak = controller.calendar(1, True, ACTIVE).peak_commitment(0, 600)
        assert peak == out.awarded_kbps <= 1000
