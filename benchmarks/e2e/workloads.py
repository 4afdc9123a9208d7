"""The five workloads.  Each is one fixed-size *round*: set-up, then a
timed control phase (host lifecycles: fund, acquire, redeem, decrypt) and
a timed data phase (packets over what the lifecycles bought).

Work is fixed per round, not per second, because the cost of a lifecycle
depends on how many came before it on the same deployment.  The harness
repeats whole rounds — same seed, same inputs, fresh deployment — and
reports medians over rounds.

The seed drives ``deploy_market(seed=)`` (every key), bandwidths, bid
valuations, transfer sizes, fragment prices and packet-size order.  It
never drives *how much* work a round holds: counts of lifecycles, legs,
buys, winners and packets are the same for every seed, so runs with
different seeds are comparable.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import api, checks
from .speed import BYTECODE, MODEXP, Timeline

PAYLOAD_SIZES = (100, 500, 1500)
PACING = 0.95  # in-profile packets are sent at this share of the reserved rate
SCALES = ("full", "smoke")


@dataclass
class RoundResult:
    """What one round measured, before aggregation over rounds.

    Every duration is calibrated (see :mod:`speed`: control-plane time by
    the modexp readings, packet time by the bytecode readings) except
    ``raw_wall_s``, the timed wall as the clock read it, which the traced
    layer self times sum to.
    """

    setup_s: float
    lifecycle_s: list
    control_wall_s: float
    data_wall_s: float
    raw_wall_s: float
    raw_control_s: float  # the control phase's part of ``raw_wall_s``
    slowdown: float  # raw timed wall over calibrated timed wall
    packets: int  # the packets pkts_per_s counts ...
    packet_wall_s: float  # ... and the wall of the phase that handled them
    packet_us: list  # per-packet samples behind pkt_p50_us
    gas_sui: float
    attempted: int
    failed: int
    problems: list
    observed: dict = field(default_factory=dict)  # per-layer counts the driver saw
    rates: dict = field(default_factory=dict)  # per-layer values that depend on the clock

    def counts(self) -> dict:
        """Everything about the round that is not a clock reading: rounds of
        one run replay the same inputs, so these must all agree."""
        return dict(
            self.observed, lifecycles=len(self.lifecycle_s), packets=self.packets,
            gas_sui=self.gas_sui, attempted=self.attempted,
        )


class Workload:
    """Base: bookkeeping shared by the five workloads."""

    name = ""
    why = ""
    hops = 0
    pkts_note = "loopback-free: routers hand packets over in memory, no link is crossed"

    def __init__(self, seed: int, scale: str = "full") -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.mark = lambda lifecycle_id: None  # the harness plugs the tracer in here
        self.host_spans: dict = {}  # host id -> [(begin, end)] of its own calls
        self.raised: list = []  # host ids whose lifecycle raised
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.packets = 0
        self.packet_phase = (0.0, 0.0)  # (begin, end) of the phase pkts_per_s covers
        self.packet_spans: list = []  # (begin, end) per sampled packet
        self.observed: dict = {}
        self.tx_mark = 0
        # (walked actions, expected actions, flyover_forwarded advance, reserved hops)
        self._deferred_packets: list = []

    def size(self, full: int, smoke: int) -> int:
        return full if self.scale == "full" else smoke

    # -- the three calls the harness makes -----------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def control(self) -> None:
        raise NotImplementedError

    def data(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed: run the output checks the timed phases deferred."""

    # -- bookkeeping -----------------------------------------------------------

    def record(self, problems: list) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.name}: {problem}" for problem in problems)

    @contextmanager
    def host_time(self, host_id: str):
        """Charge the enclosed wall time to one host's lifecycle.

        An exception inside is that lifecycle's failure, not the run's: it
        is logged, the lifecycle is marked, the round goes on.
        """
        self.mark(host_id)
        began = time.perf_counter()
        try:
            yield
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.raised.append(host_id)
        finally:
            self.host_spans.setdefault(host_id, []).append((began, time.perf_counter()))

    def payload_order(self, count: int) -> list:
        """``count`` payload sizes: equal shares of each size, seeded order."""
        sizes = [PAYLOAD_SIZES[i % len(PAYLOAD_SIZES)] for i in range(count)]
        self.rng.shuffle(sizes)
        return sizes

    def send_reserved(self, reservations, sizes, expected) -> None:
        """Build and walk in-profile packets, each expected to see ``expected``.

        The clock moves before each packet by the time its own bytes take at
        ``PACING`` of the reserved rate, so no policer ever sees a full
        bucket.  Checks are deferred: nothing but the program runs between
        the two clock readings of a packet.
        """
        clock = self.market.clock
        source = api.reserved_source(self.chain, reservations, clock)
        rate_bps = min(api.reserved_kbps(r) for r in reservations) * 1000 * PACING
        before = api.flyover_forwarded(self.routers)
        walked = []
        for size in sizes:
            clock.advance(api.wire_bytes(source, size) * 8 / rate_bps)
            began = time.perf_counter()
            packet = source.build_packet(bytes(size))
            actions = api.walk(self.chain, self.routers, packet)
            self.packet_spans.append((began, time.perf_counter()))
            walked.append(actions)
        self.packets += len(sizes)
        advanced = api.flyover_forwarded(self.routers) - before
        # every reserved hop of every packet counts one priority crossing
        self._deferred_packets.append((walked, expected, advanced, len(reservations)))

    def check_deferred_packets(self) -> None:
        for walked, expected, advanced, reserved_hops in self._deferred_packets:
            for actions in walked:
                self.record(checks.packet("reserved", actions, expected))
            self.record(
                checks.counter("flyover_forwarded", advanced, reserved_hops * len(walked))
            )

    def packet_samples_us(self, timeline: Timeline) -> list:
        """The per-packet times pkt_p50_us is the median of."""
        return [
            timeline.calibrated(begin, end, BYTECODE) * 1e6
            for begin, end in self.packet_spans
        ]

    def timed_observations(self, timeline: Timeline) -> dict:
        """Per-layer values that are rates: they need the calibrated clock."""
        return {}

    def result(self, timeline: Timeline, setup: tuple, control: tuple, data: tuple) -> RoundResult:
        """Fold the round into numbers; ``setup``, ``control`` and ``data``
        are the (begin, end) clock readings of the three phases."""
        calibrated = timeline.calibrated
        for host_id in self.raised:
            self.record([f"lifecycle {host_id} raised"])
        host_txs = self.market.host_txs(self.tx_mark)
        timed_txs = self.market.txs[self.tx_mark:]
        self.observed.update(
            {
                "ledger.txs": len(timed_txs),
                "ledger.failed_txs": sum(not tx.ok for tx in timed_txs),
                "ledger.sim_latency_s": [tx.sim_latency_s for tx in timed_txs],
                "contracts.commands": sum(tx.commands for tx in timed_txs),
            }
        )
        control_wall_s = calibrated(*control, MODEXP)
        data_wall_s = calibrated(*data, BYTECODE)
        raw_control_s = timeline.raw(*control)
        raw_wall_s = raw_control_s + timeline.raw(*data)
        return RoundResult(
            setup_s=calibrated(*setup, MODEXP),
            lifecycle_s=[  # completed lifecycles only
                sum(calibrated(begin, end, MODEXP) for begin, end in spans)
                for host_id, spans in self.host_spans.items()
                if host_id not in self.raised
            ],
            control_wall_s=control_wall_s,
            data_wall_s=data_wall_s,
            raw_wall_s=raw_wall_s,
            raw_control_s=raw_control_s,
            slowdown=raw_wall_s / (control_wall_s + data_wall_s),
            packets=self.packets,
            packet_wall_s=calibrated(*self.packet_phase, BYTECODE),
            packet_us=self.packet_samples_us(timeline),
            gas_sui=sum(tx.gas_sui for tx in host_txs),
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            observed=self.observed,
            rates=self.timed_observations(timeline),
        )


class Posted4Hop(Workload):
    name = "posted_4hop"
    why = (
        "The paper's Fig. 4 / Table 1 lifecycle, a fresh host per purchase on one "
        "4-AS deployment: public-key crypto is ~97% of the purchase, and collect cost "
        "grows with every earlier host."
    )
    hops = 4

    def setup(self) -> None:
        self.hosts = self.size(3, 2)
        self.packets_per_host = self.size(200, 15)
        self.chain = api.build_chain(self.hops, api.AES_PRF)
        self.market = api.deploy(self.chain, self.seed, asset_duration=14_400)
        self.routers = api.build_routers(self.chain, self.market.clock)
        self.bandwidths = [self.rng.randrange(2_000, 8_001, 500) for _ in range(self.hosts)]
        self.sizes = [self.payload_order(self.packets_per_host) for _ in range(self.hosts)]
        self.outcomes: list = []
        self.tx_mark = len(self.market.txs)

    def control(self) -> None:
        for index, bandwidth in enumerate(self.bandwidths):
            with self.host_time(f"h{index}"):
                start = api.T0 + 3_600 + 600 * index  # a window of its own
                host = api.new_host(self.market)
                self.outcomes.append(
                    api.purchase(self.market, host, start, start + 600, bandwidth)
                )

    def data(self) -> None:
        self.mark("pkts")
        began = time.perf_counter()
        for outcome, sizes in zip(self.outcomes, self.sizes):
            start = max(api.reservation_start(r) for r in outcome.reservations)
            self.market.clock.set(start + 1.0)
            self.send_reserved(
                outcome.reservations, sizes, checks.reserved_actions(self.hops)
            )
        self.packet_phase = (began, time.perf_counter())

    def finish(self) -> None:
        for outcome in self.outcomes:
            self.record(checks.purchase(outcome, self.hops))
        self.check_deferred_packets()


class Forward4Hop(Workload):
    name = "forward_4hop"
    why = (
        "Per-packet cost at the paper's AES PRF: one purchase, then a thousand "
        "packets built and walked through four routers; tampered, stale and "
        "over-rate packets keep every security check in the timed path."
    )
    hops = 4
    TAMPER_EVERY = 100  # packet 99, 199, ... is tampered; the one after each is stale

    def setup(self) -> None:
        self.reserved_packets = self.size(1_000, 200)
        self.burst_packets = self.size(100, 40)
        self.plain_packets = self.size(300, 60)
        self.chain = api.build_chain(self.hops, api.AES_PRF)
        self.market = api.deploy(self.chain, self.seed, asset_duration=14_400)
        self.routers = api.build_routers(self.chain, self.market.clock)
        self.bandwidth = 4_000
        self.start = api.T0 + 3_600
        self.sizes = self.payload_order(self.reserved_packets)
        self.plain_sizes = self.payload_order(self.plain_packets)
        self.outcome = None
        self.walked: list = []  # (kind, actions)
        self.plain_walked: list = []
        self.tx_mark = len(self.market.txs)

    def control(self) -> None:
        with self.host_time("h0"):
            host = api.new_host(self.market)
            self.outcome = api.purchase(
                self.market, host, self.start, self.start + 600, self.bandwidth
            )

    def data(self) -> None:
        clock = self.market.clock
        reservations = self.outcome.reservations
        clock.set(self.start + 1.0)
        source = api.reserved_source(self.chain, reservations, clock)
        rate_bps = min(api.reserved_kbps(r) for r in reservations) * 1000 * PACING
        in_profile = self.reserved_packets - self.burst_packets
        payloads = {size: bytes(size) for size in PAYLOAD_SIZES}

        self.mark("pkts.reserved")
        began = time.perf_counter()
        for index, size in enumerate(self.sizes):
            position = index % self.TAMPER_EVERY
            if index >= in_profile:
                kind = "burst"  # no clock advance: far above the reserved rate
            else:
                clock.advance(api.wire_bytes(source, size) * 8 / rate_bps)
                kind = "ok"
                if position == self.TAMPER_EVERY - 1:
                    kind = "tampered"
                elif position == 0 and index:
                    kind = "stale"
            t0 = time.perf_counter()
            packet = source.build_packet(payloads[size])
            if kind == "tampered":
                api.flip_mac_byte(packet)
            elif kind == "stale":
                clock.advance(2.0)  # > max packet age + clock skew
            actions = api.walk(self.chain, self.routers, packet)
            if kind == "ok":
                self.packet_spans.append((t0, time.perf_counter()))
            self.walked.append((kind, actions))
        self.packet_phase = (began, time.perf_counter())
        self.packets = self.reserved_packets

        self.mark("pkts.plain")
        plain = api.best_effort_source(self.chain)
        began = time.perf_counter()
        for size in self.plain_sizes:
            self.plain_walked.append(
                api.walk(self.chain, self.routers, plain.build_packet(payloads[size]))
            )
        self.plain_phase = (began, time.perf_counter())

    def finish(self) -> None:
        self.record(checks.purchase(self.outcome, self.hops))
        expected = {
            "ok": checks.reserved_actions(self.hops),
            "tampered": [api.DROP],
            "stale": checks.best_effort_actions(self.hops),
        }
        counts = {"ok": 0, "tampered": 0, "stale": 0, "burst": 0}
        for kind, actions in self.walked:
            counts[kind] += 1
            if kind != "burst":
                self.record(checks.packet(kind, actions, expected[kind]))
        burst = [actions for kind, actions in self.walked if kind == "burst"]
        self.record(checks.over_rate_burst(burst, self.hops))
        for actions in self.plain_walked:
            self.record(
                checks.packet("plain", actions, checks.best_effort_actions(self.hops))
            )
        self.record(
            checks.counter(
                "demoted_stale", api.demoted_stale(self.routers), self.hops * counts["stale"]
            )
        )
        demoted_packets = counts["stale"] + sum(
            actions != expected["ok"] for actions in burst
        )
        self.observed["hummingbird.demoted_share"] = demoted_packets / self.reserved_packets
        self.observed["hummingbird.dropped_share"] = counts["tampered"] / self.reserved_packets

    def timed_observations(self, timeline: Timeline) -> dict:
        plain_s = timeline.calibrated(*self.plain_phase, BYTECODE)
        return {"scion.pkts_per_s": self.plain_packets / plain_s}


class FloodSim4Hop(Workload):
    name = "flood_sim_4hop"
    why = (
        "The same data plane inside the event simulator at the cheap BLAKE2 PRF: a "
        "purchased 2 Mbps flow against a 20 Mbps flood, so netsim's event loop "
        "and links and plain SCION forwarding carry most time."
    )
    hops = 4
    pkts_note = "simulated links: packets cross queues and wires in simulated time only"
    SLICE_S = 0.1  # simulated seconds per run_until call
    DRAIN_S = 0.5

    def setup(self) -> None:
        self.slices = self.size(20, 4)
        self.chain = api.build_chain(self.hops, api.BLAKE2_PRF)
        self.market = api.deploy(self.chain, self.seed, asset_duration=14_400)
        self.start = api.T0 + 3_600
        self.sim_seed = self.rng.randrange(1 << 30)
        self.outcome = None
        self.sim = None
        self.slice_spans: list = []  # (begin, end, packets injected)
        self.tx_mark = len(self.market.txs)

    def control(self) -> None:
        with self.host_time("h0"):
            host = api.new_host(self.market)
            # 25% headroom over the 2 Mbps the victim sends
            self.outcome = api.purchase(
                self.market, host, self.start, self.start + 600, 2_500
            )

    def data(self) -> None:
        self.mark("pkts")
        began = time.perf_counter()
        sim = self.sim = api.build_flood_simulation(
            self.chain, self.outcome.reservations, start_time=self.start + 0.1,
            victim_bps=2e6, flood_bps=20e6, link_bps=10e6, payload_bytes=100,
            seed=self.sim_seed,
        )
        origin = sim.now
        for index in range(1, self.slices + 1):
            injected = sim.injected
            t0 = time.perf_counter()
            sim.run_until(origin + index * self.SLICE_S)
            self.slice_spans.append((t0, time.perf_counter(), sim.injected - injected))
        sim.stop_sources()
        sim.run_until(origin + self.slices * self.SLICE_S + self.DRAIN_S)
        self.packet_phase = (began, time.perf_counter())
        self.packets = sim.injected

    def packet_samples_us(self, timeline: Timeline) -> list:
        """One sample per simulated slice: its wall over the packets injected."""
        return [
            timeline.calibrated(begin, end, BYTECODE) * 1e6 / packets
            for begin, end, packets in self.slice_spans
        ]

    def timed_observations(self, timeline: Timeline) -> dict:
        simulated_s = timeline.calibrated(*self.packet_phase, BYTECODE)
        return {"netsim.events_per_s": self.sim.events_run / simulated_s}

    def finish(self) -> None:
        sim = self.sim
        self.record(checks.purchase(self.outcome, self.hops))
        links = sim.link_stats()
        self.record(checks.flood(sim.victim_flow, sim.flood_flow, links))
        totals = sim.router_totals()
        # every router decision on a victim packet is a reserved one
        self.record(
            checks.counter(
                "flyover_forwarded", totals["flyover_forwarded"],
                self.hops * sim.victim_flow.sent_packets,
            )
        )
        simulated = self.slices * self.SLICE_S + self.DRAIN_S
        self.observed.update(
            {
                "netsim.events": sim.events_run,
                "netsim.queue_drops": sum(
                    s.dropped_priority + s.dropped_best_effort for s in links
                ),
                "netsim.link_busy_share": links[0].busy_seconds / simulated,
                "netsim.victim_p99_ms": sim.victim_flow.latency_percentile(99) * 1e3,
                "hummingbird.demoted_share": totals["demoted"] / sim.injected,
                "hummingbird.dropped_share": totals["dropped"] / sim.injected,
            }
        )


class Auction24Bid(Workload):
    name = "auction_24bid"
    why = (
        "Seller-side writes beside buyer reads: a sealed-bid auction on a 3-AS "
        "chain's bottleneck (8 bids a round, 24 over a run's three rounds), settled "
        "with awards, refunds and relist in one transaction."
    )
    hops = 3
    OFFERED_KBPS = 6_000
    BID_KBPS = 1_500
    BASE_PRICE = 50
    FUNDING_SUI = 100.0

    def setup(self) -> None:
        self.bidders = self.size(8, 3)
        self.offered = self.size(self.OFFERED_KBPS, self.OFFERED_KBPS // 2)
        self.packets_per_winner = self.size(300, 15)
        self.chain = api.build_chain(self.hops, api.AES_PRF)
        self.bottleneck = self.chain.crossings[1]
        self.window = (api.T0 + 3_600, api.T0 + 4_200)
        self.market = api.deploy(
            self.chain, self.seed, asset_start=api.T0, asset_duration=3_600,
            asset_bandwidth_kbps=10_000, interface_capacity_kbps=20_000,
            pricer=api.scarcity_pricer(),
            auction_interfaces={(self.bottleneck.ingress, True)},
        )
        # winners pair the auctioned ingress piece with a posted egress piece
        api.issue_and_list(
            self.market, self.bottleneck, False, 10_000, *self.window, self.BASE_PRICE
        )
        self.routers = api.build_routers(self.chain, self.market.clock)
        # valuations: 2x..10x the base price per kbps-second, all different
        units = self.BID_KBPS * (self.window[1] - self.window[0])
        multiples = self.rng.sample(range(200, 1_001), self.bidders)
        self.budgets = [units * self.BASE_PRICE * m // 100_000_000 + 1 for m in multiples]
        self.sizes = [self.payload_order(self.packets_per_winner) for _ in range(self.bidders)]
        self.hosts: list = []
        self.outcomes: list = []
        self.posted_spend: list = []
        self.reservations: list = []
        self.record_opened = None
        self.settled: list = []
        self.tx_mark = len(self.market.txs)

    def control(self) -> None:
        market, bottleneck = self.market, self.bottleneck
        self.mark("seller")
        self.record_opened = api.open_auction(
            market, bottleneck, self.offered, *self.window, self.BASE_PRICE
        )
        auction_id = self.record_opened.auction_id
        for index, budget in enumerate(self.budgets):
            with self.host_time(f"h{index}"):
                host = api.new_host(market, self.FUNDING_SUI)
                self.hosts.append(host)
                api.place_bid(market, host, auction_id, self.BID_KBPS, budget)
        market.clock.set(float(self.window[0]))
        self.mark("seller")
        self.settled = api.settle(market, bottleneck)
        for index, host in enumerate(self.hosts):
            with self.host_time(f"h{index}"):
                outcome = api.await_settle(market, host, auction_id)
                self.outcomes.append(outcome)
                spent = 0
                if outcome is not None and outcome.won:
                    egress_asset, spent = api.buy_posted_egress(
                        market, host, bottleneck, *self.window, outcome.bandwidth_kbps
                    )
                    api.redeem_pair(host, outcome.assets[0], egress_asset)
                self.posted_spend.append(spent)
        self.mark("seller")
        api.poll_and_deliver(market, bottleneck)
        for index, host in enumerate(self.hosts):
            with self.host_time(f"h{index}"):
                self.reservations.append(api.collect_reservations(host))

    def data(self) -> None:
        self.mark("pkts")
        began = time.perf_counter()
        clock = self.market.clock
        clock.set(max(clock.now(), self.window[0] + 1.0))  # settling took simulated time
        for reservations, sizes in zip(self.reservations, self.sizes):
            if reservations:
                # only the bottleneck hop is reserved: plain, priority, deliver
                self.send_reserved(
                    reservations, sizes, [api.FORWARD, api.FORWARD_PRIORITY, api.DELIVER]
                )
        self.packet_phase = (began, time.perf_counter())

    def finish(self) -> None:
        if len(self.settled) != 1:
            self.record([f"{len(self.settled)} auctions settled, expected 1"])
            return
        settled = self.settled[0]
        self.record(
            checks.settlement(
                settled, self.offered, self.record_opened.reserve_micromist_per_unit,
                self.bidders,
            )
        )
        funded = int(self.FUNDING_SUI * 1_000_000_000)
        for host, outcome, spent, reservations in zip(
            self.hosts, self.outcomes, self.posted_spend, self.reservations
        ):
            self.record(
                checks.bidder(
                    outcome, settled.clearing_price_micromist,
                    api.balance_mist(self.market, host), funded, spent, len(reservations),
                )
            )
        self.check_deferred_packets()


class Transfer3Hop(Workload):
    name = "transfer_3hop"
    why = (
        "The posted layers used the other way: 'N bytes by T' planned over a "
        "fragmented book on sharded calendars, 1-2 legs and 6-12 buys fused and "
        "redeemed in one transaction per host."
    )
    hops = 3
    SLOT_S = 600
    SLOTS = 4
    RATE_CAP_KBPS = 10_000
    FRAGMENT_KBPS = 40_000

    def setup(self) -> None:
        # legs each host's request needs: every request is rate-capped, so a
        # request of just under ``legs`` slot-loads at the cap needs exactly
        # that many slots; the cheap fragments never touch, so each is a leg.
        self.leg_targets = [1, 2, 2] if self.scale == "full" else [2]
        self.packets_per_leg = self.size(150, 10)
        self.chain = api.build_chain(self.hops, api.AES_PRF)
        horizon = self.SLOTS * self.SLOT_S
        self.market = api.deploy(
            self.chain, self.seed, asset_start=api.T0, asset_duration=horizon,
            asset_bandwidth_kbps=100_000, interface_capacity_kbps=400_000,
            # half a slot: every 600 s leg spans a shard boundary
            shard_seconds=self.SLOT_S / 2,
        )
        # The fragmented book: per interface direction one listing per slot,
        # even slots cheap (20-29), odd slots dearer (36-45), all under the
        # seed listing's 50.  Prices are seeded inside their band, so which
        # cheap slot is cheapest changes with the seed and the plan's shape
        # does not.
        for crossing in self.chain.crossings:
            for is_ingress in (True, False):
                for slot in range(self.SLOTS):
                    low = 20 if slot % 2 == 0 else 36
                    api.issue_and_list(
                        self.market, crossing, is_ingress, self.FRAGMENT_KBPS,
                        api.T0 + slot * self.SLOT_S, api.T0 + (slot + 1) * self.SLOT_S,
                        self.rng.randrange(low, low + 10),
                    )
        self.routers = api.build_routers(self.chain, self.market.clock)
        # Less than one 60 s granule short of whole slots: a plan cannot trim
        # a leg, so it never splits a listing in time and every later host
        # sees the same book shape whatever the seed.
        slot_bytes = self.RATE_CAP_KBPS * 125 * self.SLOT_S
        self.requests = [
            int(slot_bytes * (legs - self.rng.uniform(0.01, 0.09)))
            for legs in self.leg_targets
        ]
        self.sizes = [
            self.payload_order(self.packets_per_leg) for _ in range(sum(self.leg_targets))
        ]
        self.outcomes: list = []
        self.tx_mark = len(self.market.txs)

    def control(self) -> None:
        for index, bytes_total in enumerate(self.requests):
            with self.host_time(f"h{index}"):
                host = api.new_host(self.market, 1_000.0)
                self.outcomes.append(
                    api.transfer(
                        self.market, host, bytes_total, api.T0,
                        api.T0 + self.SLOTS * self.SLOT_S, self.RATE_CAP_KBPS,
                    )
                )

    def data(self) -> None:
        self.mark("pkts")
        began = time.perf_counter()
        legs = []  # (start, reservations of one leg of one host)
        for outcome in self.outcomes:
            by_start: dict = {}
            for reservation in outcome.reservations:
                by_start.setdefault(api.reservation_start(reservation), []).append(reservation)
            legs.extend(by_start.items())
        legs.sort(key=lambda leg: leg[0])
        clock = self.market.clock
        for (start, reservations), sizes in zip(legs, self.sizes):
            clock.set(max(clock.now(), start + 1.0))
            self.send_reserved(reservations, sizes, checks.reserved_actions(self.hops))
        self.packet_phase = (began, time.perf_counter())

    def finish(self) -> None:
        for outcome, legs in zip(self.outcomes, self.leg_targets):
            self.record(checks.transfer(outcome))
            self.record(checks.counter("legs", len(outcome.plan.legs), legs))
        self.check_deferred_packets()
        self.observed["transfers.legs"] = sum(len(o.plan.legs) for o in self.outcomes)
        self.observed["transfers.buys"] = sum(o.plan.buy_count for o in self.outcomes)


WORKLOADS = {
    workload.name: workload
    for workload in (Posted4Hop, Forward4Hop, FloodSim4Hop, Auction24Bid, Transfer3Hop)
}
