"""Network simulator: event loop, links, metrics, and the QoS experiment."""

import pytest

from repro.clock import SimClock
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.metrics import FlowMetrics
from repro.netsim.scenarios import (
    auction_experiment,
    congestion_experiment,
    contention_experiment,
    flex_market_experiment,
    linear_path,
)


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop(SimClock(0.0))
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        loop.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_run_until_stops_at_boundary(self):
        loop = EventLoop(SimClock(0.0))
        fired = []
        loop.schedule(5.0, lambda: fired.append(1))
        loop.run_until(4.0)
        assert not fired and loop.now == 4.0
        loop.run_until(6.0)
        assert fired

    def test_past_scheduling_rejected(self):
        loop = EventLoop(SimClock(10.0))
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_cascading_events(self):
        loop = EventLoop(SimClock(0.0))
        hits = []

        def chain(n):
            hits.append(n)
            if n < 5:
                loop.schedule(0.1, lambda: chain(n + 1))

        loop.schedule(0.0, lambda: chain(0))
        loop.run_until(1.0)
        assert hits == [0, 1, 2, 3, 4, 5]

    def test_events_run_counts_across_calls(self):
        loop = EventLoop(SimClock(0.0))
        assert loop.events_run == 0
        for delay in (1.0, 2.0, 3.0):
            loop.schedule(delay, lambda: None)
        loop.run_until(1.5)
        assert loop.events_run == 1
        loop.run_until(10.0)
        assert loop.events_run == 3

    def test_equal_timestamps_run_fifo(self):
        loop = EventLoop(SimClock(0.0))
        order = []
        for label in range(6):
            loop.schedule_at(1.0, lambda label=label: order.append(label))
        loop.run_until(2.0)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_equal_timestamps_with_args_run_fifo(self):
        loop = EventLoop(SimClock(0.0))
        order = []
        for label in range(6):
            if label % 2:
                loop.schedule_at(1.0, order.append, label)
            else:
                loop.schedule(1.0, lambda a, b: order.append(a + b), label, 0)
        loop.run_until(2.0)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_event_cap_leaves_the_clock_where_the_next_call_can_resume(self):
        # Regression: the capped call used to jump the clock to end_time; the
        # next call then popped an older event and died with "time cannot
        # move backwards".
        loop = EventLoop(SimClock(0.0))
        fired = []
        for when in (1.0, 2.0, 3.0):
            loop.schedule_at(when, fired.append, when)
        assert loop.run_until(10.0, max_events=1) == 1
        assert fired == [1.0] and loop.now == 1.0 and loop.pending == 2
        assert loop.run_until(10.0) == 2
        assert fired == [1.0, 2.0, 3.0] and loop.now == 10.0

    def test_event_cap_still_advances_past_an_emptied_window(self):
        loop = EventLoop(SimClock(0.0))
        loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(20.0, lambda: None)
        assert loop.run_until(10.0, max_events=1) == 1
        assert loop.now == 10.0  # the only queued event lies beyond end_time


class TestLink:
    def test_serialization_delay(self):
        loop = EventLoop(SimClock(0.0))
        link = Link(loop, rate_bps=8000, propagation_delay=0.5)  # 1 B/ms
        arrivals = []
        link.send("pkt", 100, priority=False, deliver=lambda p: arrivals.append(loop.now))
        loop.run_until(10.0)
        # 100 B at 1 kB/s = 0.1 s transmission + 0.5 s propagation.
        assert arrivals == [pytest.approx(0.6)]

    def test_strict_priority_ordering(self):
        loop = EventLoop(SimClock(0.0))
        link = Link(loop, rate_bps=8000, propagation_delay=0.0)
        order = []
        # First packet occupies the transmitter, then one BE + one priority
        # queue behind it: the priority packet must transmit first.
        link.send("first", 100, False, lambda p: order.append(p))
        link.send("be", 100, False, lambda p: order.append(p))
        link.send("prio", 100, True, lambda p: order.append(p))
        loop.run_until(10.0)
        assert order == ["first", "prio", "be"]

    def test_per_class_buffers(self):
        loop = EventLoop(SimClock(0.0))
        link = Link(loop, rate_bps=80, buffer_bytes=150)
        for _ in range(10):
            link.send("be", 100, False, lambda p: None)
        assert link.stats.dropped_best_effort > 0
        accepted = link.send("prio", 100, True, lambda p: None)
        assert accepted  # the flood did not consume the priority buffer

    def test_utilization(self):
        loop = EventLoop(SimClock(0.0))
        link = Link(loop, rate_bps=800, propagation_delay=0.0)
        link.send("p", 100, False, lambda p: None)  # 1 s transmission
        loop.run_until(2.0)
        assert link.utilization(2.0) == pytest.approx(0.5)


class TestMetrics:
    def test_goodput_and_loss(self):
        metrics = FlowMetrics(1)
        metrics.record_sent(1000, 0.0)
        metrics.record_sent(1000, 1.0)
        metrics.record_received(1000, 0.0, 0.5)
        assert metrics.loss_rate == pytest.approx(0.5)
        assert metrics.goodput_bps(duration=1.0) == pytest.approx(8000)

    def test_percentiles(self):
        metrics = FlowMetrics(1)
        for i in range(10):
            metrics.record_sent(10, float(i))
            metrics.record_received(10, float(i), float(i) + (i + 1) / 100)
        assert metrics.latency_percentile(0) == pytest.approx(0.01)
        assert metrics.latency_percentile(100) == pytest.approx(0.10)


class TestQosExperiment:
    def test_reservation_shields_from_flood(self):
        """Property D2: reserved goodput survives, best effort collapses."""
        topology, path = linear_path(3)
        unprotected = congestion_experiment(
            topology, path, protected=False, duration=1.5
        )
        protected = congestion_experiment(
            topology, path, protected=True, duration=1.5
        )
        assert protected.victim["goodput_mbps"] > 1.8  # sending at 2 Mbps
        assert protected.victim["loss_rate"] < 0.05
        assert unprotected.victim["goodput_mbps"] < 1.0
        assert unprotected.victim["loss_rate"] > 0.3
        # Priority traffic also sees far lower queueing delay.
        assert protected.victim["p50_ms"] < unprotected.victim["p50_ms"] / 2

    def test_unused_reservation_leaves_bandwidth_to_best_effort(self):
        """§4.3: unused reserved bandwidth is not wasted."""
        topology, path = linear_path(3)
        result = congestion_experiment(
            topology, path, protected=True,
            victim_rate_bps=500_000.0,  # reserves more than it sends
            flood_rate_bps=20_000_000.0,
            link_rate_bps=10_000_000.0,
            duration=1.5,
        )
        # The flood still gets ~ the remaining capacity of the bottleneck.
        assert result.attacker["goodput_mbps"] > 8.0


class TestContentionExperiment:
    def test_rejected_buyers_fall_to_best_effort(self):
        """Admission splits the crowd: admitted keep their goodput, rejected
        collapse onto the leftover best-effort capacity."""
        topology, path = linear_path(3)
        result = contention_experiment(topology, path, num_buyers=8, duration=1.5)
        # 8000 kbps reservable / 2500 kbps per request -> exactly 3 admitted.
        assert len(result.admitted) == 3
        assert len(result.rejected) == 5
        for buyer in result.admitted:
            assert buyer.metrics["goodput_mbps"] > 1.8  # sending at 2 Mbps
            assert buyer.metrics["loss_rate"] < 0.05
        for buyer in result.rejected:
            assert buyer.metrics["goodput_mbps"] < 1.2
            assert buyer.metrics["loss_rate"] > 0.2
        # The bottleneck is saturated by the total offered load.
        assert result.bottleneck_utilization > 0.9

    def test_scarcity_prices_rise_as_interface_fills(self):
        topology, path = linear_path(3)
        result = contention_experiment(topology, path, num_buyers=6, duration=0.5)
        quotes = [b.quoted_price_micromist for b in result.buyers]
        assert quotes == sorted(quotes)
        assert quotes[-1] > quotes[0]
        # Rejected buyers saw the saturated-quote price.
        assert all(
            b.quoted_price_micromist >= quotes[len(result.admitted) - 1]
            for b in result.rejected
        )

    def test_everyone_admitted_when_capacity_suffices(self):
        topology, path = linear_path(3)
        result = contention_experiment(
            topology,
            path,
            num_buyers=3,
            per_buyer_kbps=1000,
            duration=0.5,
        )
        assert len(result.admitted) == 3 and not result.rejected


class TestAuctionExperiment:
    def test_auction_beats_posted_revenue_without_oversell(self):
        """The headline claim: under the contention workload a sealed-bid
        uniform-price auction extracts at least posted-scarcity revenue,
        allocates the window to the highest-value buyers, and never
        commits past physical capacity."""
        topology, path = linear_path(3)
        result = auction_experiment(topology, path, duration=0.5)
        assert result.auction_revenue_mist >= result.posted_revenue_mist
        assert not result.oversold
        assert result.posted_peak_kbps <= result.capacity_kbps
        assert result.auction_peak_kbps <= result.capacity_kbps
        # The auction clears above the reserve when demand contends...
        assert result.clearing_price_micromist >= result.reserve_micromist
        # ...and captures the full achievable valuation (posted allocates
        # by arrival order, so it usually captures less).
        assert result.efficiency("auction") == pytest.approx(1.0)
        assert result.efficiency("posted") <= result.efficiency("auction")

    def test_winners_protected_losers_best_effort_on_the_data_plane(self):
        topology, path = linear_path(3)
        result = auction_experiment(topology, path, duration=0.5)
        winners = [b for b in result.buyers if b.auction_won]
        losers = [b for b in result.buyers if not b.auction_won]
        assert winners and losers
        for winner in winners:
            assert winner.metrics["goodput_mbps"] > 1.8
            assert winner.auction_paid_mist > 0
        # Everyone contends, so the losers' best-effort goodput collapses
        # below the reserved flows'.
        worst_winner = min(w.metrics["goodput_mbps"] for w in winners)
        best_loser = max(l.metrics["goodput_mbps"] for l in losers)
        assert best_loser < worst_winner

    def test_clearing_only_run_skips_the_packet_phase(self):
        topology, path = linear_path(3)
        result = auction_experiment(topology, path, duration=0, seed=3)
        assert all(b.metrics == {} for b in result.buyers)
        assert result.bottleneck_utilization == 0.0
        assert not result.oversold

    def test_uniform_price_is_single_and_within_bids(self):
        topology, path = linear_path(3)
        result = auction_experiment(topology, path, duration=0, seed=5)
        paid = {b.auction_paid_mist for b in result.buyers if b.auction_won}
        assert len(paid) == 1  # ONE price for every winner
        for buyer in result.buyers:
            if buyer.auction_won:
                assert result.clearing_price_micromist <= buyer.valuation_micromist


class TestFlexMarketExperiment:
    def test_flexible_buyer_pays_the_valley_price(self):
        """V2 purchase workflow end to end: a zero-flex probe pays the
        scarcity-priced peak restock, a flexible one slides into the
        post-peak valley, pays the base price, and its reservations
        protect its flow on the data plane all the same."""
        result = flex_market_experiment(flex_values=(0, 1800), duration=0.5)
        assert result.peak_price_micromist > result.base_price_micromist
        rigid, flexible = result.buyers
        assert rigid.offset == 0
        assert flexible.offset > 0  # out of the peak window
        assert flexible.paid_price_mist < rigid.paid_price_mist
        assert flexible.estimated_price_mist == flexible.paid_price_mist
        for buyer in result.buyers:  # both shielded from the flood
            assert buyer.metrics["goodput_mbps"] > 1.8
            assert buyer.metrics["loss_rate"] < 0.05
        # The price curve exposes the peak premium over the valley floor.
        finite = [price for price in result.curve_prices if price != float("inf")]
        assert max(finite) > min(finite)
