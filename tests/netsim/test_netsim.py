"""Network simulator: event loop, links, metrics, and the QoS experiment."""

import pytest

from tests.fingerprint import calendar_fingerprint

from repro.clock import SimClock
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.metrics import FlowMetrics
from repro.netsim.scenarios import (
    admitted,
    auction_experiment,
    congestion_experiment,
    contention_experiment,
    efficiency,
    flex_market_experiment,
    jain_index,
    linear_path,
    rejected,
)
from repro.netsim import scenarios
from repro.netsim.scenarios import _contended_market, _restock, _window_end


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
        assert not fired and loop.clock.now() == 4.0
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
            loop.schedule(1.0, lambda label=label: order.append(label))
        loop.run_until(2.0)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_equal_timestamps_with_args_run_fifo(self):
        loop = EventLoop(SimClock(0.0))
        order = []
        for label in range(6):
            if label % 2:
                loop.schedule(1.0, order.append, label)
            else:
                loop.schedule(1.0, lambda a, b: order.append(a + b), label, 0)
        loop.run_until(2.0)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_the_clock_ends_at_end_time_with_later_events_queued(self):
        loop = EventLoop(SimClock(0.0))
        loop.schedule(1.0, lambda: None)
        loop.schedule(20.0, lambda: None)
        assert loop.run_until(10.0) == 1
        assert loop.clock.now() == 10.0 and len(loop._queue) == 1

    def test_a_clock_set_forward_between_runs_is_honoured(self):
        """The loop keeps no time of its own: a clock set between runs (a
        scenario waiting out an auction) is where the next event counts from."""
        clock = SimClock(0.0)
        loop = EventLoop(clock)
        loop.run_until(1.0)
        clock.set(50.0)
        seen = []
        loop.schedule(2.0, lambda: seen.append(loop.clock.now()))
        assert loop.run_until(51.0) == 0 and clock.now() == 51.0
        assert loop.run_until(52.0) == 1 and seen == [52.0]

    def test_time_that_moves_backwards_is_refused(self):
        """An event queued before the clock was set past it would run in the
        past: the loop refuses, as ``SimClock.set`` does."""
        clock = SimClock(0.0)
        loop = EventLoop(clock)
        loop.schedule(5.0, lambda: None)
        clock.set(10.0)
        with pytest.raises(ValueError, match="time cannot move backwards"):
            loop.run_until(20.0)
        with pytest.raises(ValueError, match="time cannot move backwards"):
            clock.set(9.0)
        assert clock.now() == 10.0

    def test_a_callback_that_sets_the_clock_past_queued_events_is_refused(self):
        clock = SimClock(0.0)
        loop = EventLoop(clock)
        loop.schedule(1.0, lambda: clock.set(5.0))
        loop.schedule(2.0, lambda: None)
        with pytest.raises(ValueError, match="time cannot move backwards"):
            loop.run_until(10.0)


class TestLink:
    def test_serialization_delay(self):
        loop = EventLoop(SimClock(0.0))
        link = Link(loop, rate_bps=8000, propagation_delay=0.5)  # 1 B/ms
        arrivals = []
        link.send("pkt", 100, priority=False, deliver=lambda p: arrivals.append(loop.clock.now()))
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

    def test_utilization_never_bills_time_not_yet_elapsed(self):
        loop = EventLoop(SimClock(0.0))
        link = Link(loop, rate_bps=800, propagation_delay=0.0)
        for _ in range(3):  # back to back: busy over [0, 3) s
            link.send("p", 100, False, lambda p: None)
        loop.run_until(2.5)  # the third transmission is half done
        assert link.stats.busy_seconds <= 2.5
        assert link.utilization(2.5) <= 1.0
        loop.run_until(3.0)
        assert link.utilization(3.0) == pytest.approx(1.0)


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
    @pytest.fixture(autouse=True)
    def _short_runs(self, monkeypatch):
        monkeypatch.setattr(scenarios, "CONGESTION_SECONDS", 1.5)

    def test_reservation_shields_from_flood(self):
        """Property D2: reserved goodput survives, best effort collapses."""
        topology, path = linear_path(3)
        unprotected = congestion_experiment(topology, path, protected=False)
        protected = congestion_experiment(topology, path, protected=True)
        assert protected.victim["goodput_mbps"] > 1.8  # sending at 2 Mbps
        assert protected.victim["loss_rate"] < 0.05
        assert unprotected.victim["goodput_mbps"] < 1.0
        assert unprotected.victim["loss_rate"] > 0.3
        # Priority traffic also sees far lower queueing delay.
        assert protected.victim["p50_ms"] < unprotected.victim["p50_ms"] / 2

    def test_unused_reservation_leaves_bandwidth_to_best_effort(self, monkeypatch):
        """§4.3: unused reserved bandwidth is not wasted."""
        monkeypatch.setattr(scenarios, "VICTIM_RATE_BPS", 500_000.0)
        topology, path = linear_path(3)
        result = congestion_experiment(topology, path, protected=True)
        # The flood still gets ~ the remaining capacity of the bottleneck.
        assert result.attacker["goodput_mbps"] > 8.0


class TestContentionExperiment:
    def test_rejected_buyers_fall_to_best_effort(self):
        """Admission splits the crowd: admitted keep their goodput, rejected
        collapse onto the leftover best-effort capacity."""
        topology, path = linear_path(3)
        result = contention_experiment(topology, path, num_buyers=8, duration=1.5)
        # 8000 kbps reservable / 2500 kbps per request -> exactly 3 admitted.
        assert len(admitted(result.buyers)) == 3
        assert len(rejected(result.buyers)) == 5
        for buyer in admitted(result.buyers):
            assert buyer.metrics["goodput_mbps"] > 1.8  # sending at 2 Mbps
            assert buyer.metrics["loss_rate"] < 0.05
            assert buyer.granted_kbps == buyer.requested_kbps and buyer.paid_mist > 0
        for buyer in rejected(result.buyers):
            assert buyer.granted_kbps == 0 and buyer.paid_mist == 0
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
            b.quoted_price_micromist >= quotes[len(admitted(result.buyers)) - 1]
            for b in rejected(result.buyers)
        )

    def test_everyone_admitted_when_capacity_suffices(self, monkeypatch):
        monkeypatch.setattr(scenarios, "PER_BUYER_KBPS", 1000)
        topology, path = linear_path(3)
        result = contention_experiment(topology, path, num_buyers=3, duration=0.5)
        assert len(admitted(result.buyers)) == 3 and not rejected(result.buyers)


def _arm(result, arm):
    """One arm's records, in buyer order."""
    return [buyer for buyer in result.buyers if buyer.arm == arm]


class TestAuctionExperiment:
    def test_auction_beats_posted_revenue_without_oversell(self, experiment_runs):
        """The headline claim: under the contention workload a sealed-bid
        uniform-price auction extracts at least posted-scarcity revenue,
        allocates the window to the highest-value buyers, and never
        commits past physical capacity."""
        result = experiment_runs(auction_experiment, 3, duration=0.5)
        assert result.auction_revenue_mist >= result.posted_revenue_mist
        assert not result.oversold
        assert result.posted_peak_kbps <= result.capacity_kbps
        assert result.auction_peak_kbps <= result.capacity_kbps
        # The auction clears above the reserve when demand contends...
        assert result.clearing_price_micromist >= result.reserve_micromist
        # ...and captures the full achievable valuation (posted allocates
        # by arrival order, so it usually captures less).
        posted, auction = _arm(result, "posted"), _arm(result, "auction")
        valuations, capacity = result.valuations_micromist, result.capacity_kbps
        assert efficiency(auction, valuations, capacity) == pytest.approx(1.0)
        assert efficiency(posted, valuations, capacity) <= efficiency(
            auction, valuations, capacity
        )
        # Every buyer asks for the same bandwidth, so both arms fill the same
        # number of equal windows: one Jain's index, different winners.
        assert jain_index(auction) == jain_index(posted)

    def test_winners_protected_losers_best_effort_on_the_data_plane(
        self, experiment_runs
    ):
        result = experiment_runs(auction_experiment, 3, duration=0.5)
        winners = admitted(_arm(result, "auction"))
        losers = rejected(_arm(result, "auction"))
        assert winners and losers
        for winner in winners:
            assert winner.metrics["goodput_mbps"] > 1.8
            assert winner.paid_mist > 0
        # Everyone contends, so the losers' best-effort goodput collapses
        # below the reserved flows'.
        worst_winner = min(w.metrics["goodput_mbps"] for w in winners)
        best_loser = max(l.metrics["goodput_mbps"] for l in losers)
        assert best_loser < worst_winner

    def test_clearing_only_run_skips_the_packet_phase(self, experiment_runs):
        result = experiment_runs(
            auction_experiment, 3, constants={"VALUATIONS_SEED": 3}, duration=0
        )
        assert all(b.metrics == {} for b in result.buyers)
        assert result.bottleneck_utilization == 0.0
        assert not result.oversold

    def test_uniform_price_is_single_and_within_bids(self, experiment_runs):
        result = experiment_runs(
            auction_experiment, 3, constants={"VALUATIONS_SEED": 5}, duration=0
        )
        winners = admitted(_arm(result, "auction"))
        assert len({b.paid_mist for b in winners}) == 1  # ONE price for every winner
        for buyer in winners:
            assert result.clearing_price_micromist <= result.valuations_micromist[buyer.buyer]


class TestFlexMarketExperiment:
    def test_flexible_buyer_pays_the_valley_price(self):
        """V2 purchase workflow end to end: a zero-flex probe pays the
        scarcity-priced peak restock, a flexible one slides into the
        post-peak valley, pays the base price, and its reservations
        protect its flow on the data plane all the same."""
        result = flex_market_experiment(duration=0.5)
        assert result.peak_price_micromist > result.base_price_micromist
        rigid, flexible = result.buyers
        rigid_start, flexible_start = result.window_starts
        assert rigid_start == result.peak_window[0]
        assert flexible_start > result.peak_window[0]  # out of the peak window
        assert flexible.paid_mist < rigid.paid_mist
        assert rigid.quoted_price_micromist == result.peak_price_micromist
        assert flexible.quoted_price_micromist == result.base_price_micromist
        for buyer in result.buyers:  # both shielded from the flood
            assert buyer.metrics["goodput_mbps"] > 1.8
            assert buyer.metrics["loss_rate"] < 0.05
        # The price curve exposes the peak premium over the valley floor.
        finite = [price for price in result.curve_prices if price != float("inf")]
        assert max(finite) > min(finite)


class TestRestock:
    """A buyer's legs are restocked all or none."""

    def test_a_full_later_leg_refuses_before_any_leg_is_listed(self):
        end = _window_end(0.5)
        deployment, _, bottleneck, _ = _contended_market(*linear_path(3), end, 1.0)
        admission = deployment.service(bottleneck.isd_as).admission
        ingress = admission.calendar(bottleneck.ingress, True)
        egress = admission.calendar(bottleneck.egress, False)  # listed to capacity
        before = calendar_fingerprint(ingress), calendar_fingerprint(egress)
        legs = [(bottleneck, True), (bottleneck, False)]
        assert _restock(deployment, legs, end, 1250) == "a later leg has no room"
        assert (calendar_fingerprint(ingress), calendar_fingerprint(egress)) == before
        # a full first leg is refused by its policy, in its own words
        assert _restock(deployment, legs[::-1], end, 1250) == "needs 1250 kbps, only 0 kbps free"
        assert (calendar_fingerprint(ingress), calendar_fingerprint(egress)) == before
        assert _restock(deployment, legs[:1], end, 1250) is None
        assert ingress.peak_commitment(0, end) == 1250

