"""Canned simulation scenarios for the QoS experiments.

The central harness, :func:`build_path_simulation`, turns a forwarding path
into a chain of router nodes joined by priority-queue links, with a metrics
sink at the destination.  The congestion, contention, auction,
path-contention and reclamation experiments run on a
:func:`~repro.controlplane.deploy_market` deployment built beside it by
:func:`_market`: their buyers are hosts that buy, redeem and decrypt what
their packets carry, whole paths clear in one on-chain path auction, the
reclamation loop is the deployment's own (each on-path AS reads and caps its
router's policer), and each run ends in :func:`repro.invariants.check`.
Every experiment that sends ends in the same traffic phase —
:meth:`PathSimulation.send` per flow, then :meth:`PathSimulation.run` — and
every experiment fixes everything no caller varies as a named constant:
shared values below, a scenario's own at the top of its function.  No
experiment asks whether it is observed: wrapped in
:meth:`ExperimentTelemetry.activate() <repro.telemetry.ExperimentTelemetry.activate>`,
any run reports its metrics and its named traces to that harness.

The flagship experiment — :func:`congestion_experiment` — reproduces the
QoS property D2: a reservation-protected flow keeps its goodput and latency
through a best-effort flood that saturates the bottleneck link, while an
unprotected flow collapses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.clock import SimClock
from repro.crypto.prf import PrfFactory
from repro.hummingbird.reservation import FlyoverReservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.metrics import FlowMetrics
from repro.netsim.nodes import HostSink, RouterNode
from repro.netsim.traffic import CbrSource
from repro.scion.addresses import HostAddr, ScionAddr
from repro.scion.paths import ForwardingPath, as_crossings
from repro.scion.topology import Topology
from repro.telemetry import named_trace, use_trace

# Simulations hash millions of packets; the keyed-BLAKE2 backend keeps the
# event loop fast while exercising the identical MAC code paths.  Every
# MAC-producing component of one simulation (beaconing, sources, routers)
# must share one factory — use :func:`linear_path` to get consistent
# topology + path artifacts.
SIM_PRF = PrfFactory("blake2")

PAYLOAD_BYTES = 1000  # every simulated flow's payload size
LINK_RATE_BPS = 10_000_000.0  # inter-AS links, the bottleneck included
BASE_PRICE_MICROMIST = 50  # per kbps-second, before any scarcity multiplier
SEED = 1
START = 1_700_000_000  # the second every simulation starts at
GRANULE = 60  # seconds: the granularity of every asset an AS issues
FLOOD_RATE_BPS = 20_000_000.0  # every best-effort flood: twice a link
PER_BUYER_KBPS = 2000  # what each contention, auction or path-auction buyer sends


def linear_path(num_ases: int, prf_factory: PrfFactory = SIM_PRF):
    """Chain topology + leaf-to-core forwarding path, beaconing included
    (at :data:`START`).

    Returns ``(topology, path)`` whose hop-field MACs were produced with
    ``prf_factory`` — hand the same factory to
    :func:`build_path_simulation`.
    """
    from repro.scion.beaconing import run_beaconing
    from repro.scion.paths import PathLookup
    from repro.scion.topology import linear_topology

    topology = linear_topology(num_ases)
    store = run_beaconing(topology, timestamp=START, prf_factory=prf_factory)
    lookup = PathLookup(store)
    path = lookup.find_paths(
        topology.ases[-1].isd_as, topology.ases[0].isd_as
    )[0]
    return topology, path


@dataclass
class PathSimulation:
    """A wired-up simulation of one forwarding path."""

    loop: EventLoop
    clock: SimClock
    path: ForwardingPath
    nodes: dict = field(default_factory=dict)  # IsdAs -> RouterNode
    links: list = field(default_factory=list)
    sink: HostSink | None = None
    src_addr: ScionAddr | None = None
    dst_addr: ScionAddr | None = None
    prf_factory: PrfFactory = SIM_PRF
    _sources: list = field(default_factory=list, init=False, repr=False)

    @property
    def entry(self) -> RouterNode:
        return self.nodes[self.path.src]

    def now(self) -> float:
        """The simulated time — so a deployment can keep it as its clock
        (:func:`_market`), which no transaction advances."""
        return self.clock.now()

    def hummingbird_source(self, reservations: list[FlyoverReservation]) -> HummingbirdSource:
        return HummingbirdSource(
            self.src_addr,
            self.dst_addr,
            self.path,
            reservations,
            self.clock,
            self.prf_factory,
        )

    def best_effort_source(self) -> ScionBestEffortSource:
        return ScionBestEffortSource(self.src_addr, self.dst_addr, self.path)

    def send(
        self,
        flow_id: int,
        rate_bps: float,
        reservations: list[FlyoverReservation] | None = None,
        delay: float = 0.0,
        jitter: float = 0.0,
    ) -> FlowMetrics:
        """Start one constant-bit-rate flow at the path's first AS.

        Reserved traffic when ``reservations`` is given, best effort
        otherwise; the first packet leaves ``delay`` seconds from now.
        Returns the sink's metrics for ``flow_id``.  The one place a
        simulated flow gets randomness: each flow draws its jitter from its
        own stream, ``random.Random(f"{SEED}/flow/{flow_id}")``, so its
        packet schedule depends only on its id, rate, delay and jitter,
        never on which other flows run.  Call order is still part of a
        scenario: the event loop breaks ties first come first served, so
        starting two flows the other way round can reorder their packets
        at a shared queue.
        """
        if reservations is None:
            builder = self.best_effort_source()
        else:
            builder = self.hummingbird_source(reservations)
        metrics = self.sink.flow(flow_id)
        source = CbrSource(
            self.loop,
            builder,
            self.entry,
            metrics,
            rate_bps=rate_bps,
            payload_bytes=PAYLOAD_BYTES,
            flow_id=flow_id,
            jitter=jitter,
            rng=random.Random(f"{SEED}/flow/{flow_id}"),
        )
        self._sources.append(source)
        source.start(delay)
        return metrics

    def run(self, duration: float) -> None:
        """Advance the simulation ``duration`` seconds, then stop every flow."""
        self.loop.run_until(self.clock.now() + duration)
        self.stop()

    def stop(self) -> None:
        """Stop every flow :meth:`send` started; packets in flight still arrive."""
        for source in self._sources:
            source.stop()


def build_path_simulation(
    topology: Topology,
    path: ForwardingPath,
    start_time: float = 1_700_000_000.0,
    link_rate_bps: float = LINK_RATE_BPS,
    prf_factory: PrfFactory = SIM_PRF,
    link_rates: list[float] | None = None,
) -> PathSimulation:
    """Instantiate routers, links and the destination sink along ``path``.

    ``link_rates`` overrides ``link_rate_bps`` per link (one entry per
    inter-AS link in traversal order) — e.g. a slow first link makes a
    single-hop bottleneck.
    """
    propagation_delay = 0.002
    buffer_bytes = 64_000
    clock = SimClock(start_time)
    loop = EventLoop(clock)
    simulation = PathSimulation(
        loop=loop,
        clock=clock,
        path=path,
        prf_factory=prf_factory,
        src_addr=ScionAddr(path.src, HostAddr.from_string("10.0.0.1")),
        dst_addr=ScionAddr(path.dst, HostAddr.from_string("10.0.0.2")),
    )
    crossings = as_crossings(path)
    for crossing in crossings:
        autonomous_system = topology.as_of(crossing.isd_as)
        router = HummingbirdRouter(autonomous_system, clock, prf_factory)
        simulation.nodes[crossing.isd_as] = RouterNode(router)
    for index, (first, second) in enumerate(zip(crossings, crossings[1:])):
        rate = link_rate_bps if link_rates is None else link_rates[index]
        link = Link(
            loop,
            rate_bps=rate,
            propagation_delay=propagation_delay,
            buffer_bytes=buffer_bytes,
            name=f"{first.isd_as}->{second.isd_as}",
        )
        simulation.links.append(link)
        simulation.nodes[first.isd_as].connect(
            first.egress, link, simulation.nodes[second.isd_as], second.ingress
        )
    sink = HostSink(clock)
    simulation.nodes[crossings[-1].isd_as].attach_sink(sink)
    simulation.sink = sink
    return simulation


def _market(topology: Topology, path: ForwardingPath, reclaims: bool = False, **market):
    """``(deployment, simulation)``: :func:`~repro.controlplane.deploy_market`
    over ``topology`` (``market`` passed through) beside
    :func:`build_path_simulation` over ``path``, both keyed with
    :data:`SIM_PRF`.  The simulation is the deployment's clock, so the market
    trades at simulated time and its transactions take none of it.  With
    ``reclaims`` every AS runs its reclamation loop, each on-path AS's bound
    to its own router's policer."""
    from repro.controlplane import deploy_market

    simulation = build_path_simulation(topology, path)
    nodes = simulation.nodes

    def policer_of(isd_as):
        return nodes[isd_as].router.policer if isd_as in nodes else None

    deployment = deploy_market(
        topology, clock=simulation, seed=SEED, prf_factory=SIM_PRF,
        policer_of=policer_of if reclaims else None, **market,
    )
    return deployment, simulation


def _window_end(duration: float) -> int:
    """End of the window a run of ``duration`` seconds buys from :data:`START`:
    a minute of slack past the run, rounded up to whole granules."""
    return START + -(-(int(duration) + 60) // GRANULE) * GRANULE


def _bottleneck(path: ForwardingPath, reservable_fraction: float):
    """Where the buyers of one path contend, and how much of it is for sale.

    Returns the crossing on the ingress side of the first inter-AS link and
    the kbps of that link its AS may reserve.
    """
    crossings = as_crossings(path)
    if len(crossings) < 2:
        raise ValueError("need at least one inter-AS link for a bottleneck")
    return crossings[1], int(LINK_RATE_BPS / 1000 * reservable_fraction)


def _list_legs(deployment, crossings, kbps: int, start: int, end: int, skip=None) -> int:
    """Each on-path AS lists ``kbps`` of every interface direction the
    crossings cross but ``skip`` (a ``(crossing, is_ingress)``) for
    ``[start, end)`` at its scarcity quote; returns the highest quote."""
    highest = BASE_PRICE_MICROMIST
    for crossing in crossings:
        service = deployment.service(crossing.isd_as)
        for interface, is_ingress in ((crossing.ingress, True), (crossing.egress, False)):
            if (crossing, is_ingress) == skip:
                continue
            highest = max(highest, service.admission.quote(
                BASE_PRICE_MICROMIST, interface, is_ingress, start, end
            ))
            listed = service.issue_and_list(
                deployment.marketplace, interface, is_ingress, kbps, start, end,
                BASE_PRICE_MICROMIST,
            )
            if not listed.effects.ok:  # pragma: no cover - deploy is deterministic
                raise RuntimeError(f"listing failed: {listed.effects.error}")
    return highest


def _contended_market(topology, path, end: int, reservable_fraction: float, **market):
    """A :func:`_market` whose buyers contend at the path's bottleneck.

    Every interface direction has the bottleneck's reservable capacity.  For
    ``[START, end)`` each on-path AS lists all of it on every direction the
    path crosses except the bottleneck's ingress, which the experiment has
    the bottleneck AS sell itself
    (:meth:`~repro.controlplane.AsService.offer_capacity`, one buyer's worth
    per sale through :func:`_restock`); every buyer past that capacity needs
    each of its legs restocked the same way, so an overbooking policy judges
    every leg as it judges the bottleneck.  ``deploy_market``'s own listings
    cover the hour after ``end``.

    Returns ``(deployment, simulation, bottleneck crossing, capacity_kbps)``.
    """
    bottleneck, capacity_kbps = _bottleneck(path, reservable_fraction)
    deployment, simulation = _market(
        topology, path, asset_start=end, asset_bandwidth_kbps=capacity_kbps, **market
    )
    _list_legs(
        deployment, as_crossings(path), capacity_kbps, START, end, skip=(bottleneck, True)
    )
    return deployment, simulation, bottleneck, capacity_kbps


def _restock(deployment, legs, end: int, kbps: int) -> str | None:
    """Each of ``legs`` — ``(crossing, is_ingress)`` interface directions —
    has its AS list ``kbps`` more of it for ``[START, end)`` at its scarcity
    quote; returns why an issued calendar refused, or None.

    A refusal lists nothing: every leg is read against its admission rule's
    limit factor before any is listed, the way the rule admits.  A first
    leg without room is refused by the rule, in the rule's words."""
    from repro.admission import AdmissionRejected

    def room(crossing, is_ingress) -> bool:
        admission = deployment.service(crossing.isd_as).admission
        calendar = admission.calendar(
            crossing.ingress if is_ingress else crossing.egress, is_ingress
        )
        factor = admission.policy.limit_factor(calendar)
        return calendar.peak_commitment(START, end) + kbps <= factor * calendar.capacity_kbps

    if room(*legs[0]) and not all(room(*leg) for leg in legs[1:]):
        return "a later leg has no room"
    try:
        for crossing, is_ingress in legs:
            deployment.service(crossing.isd_as).offer_capacity(
                deployment.marketplace, crossing.ingress if is_ingress else crossing.egress,
                is_ingress, kbps, START, end, BASE_PRICE_MICROMIST,
            )
    except AdmissionRejected as refusal:
        # "<AS> interface <n> (<direction>): <the policy's reason>"
        return str(refusal).partition("): ")[2]
    return None


def _redeem_bottleneck(deployment, host, bottleneck, ingress_asset: str, end: int,
                       kbps: int, budget_mist: int) -> int:
    """``host`` buys the bottleneck's posted egress, redeems it with
    ``ingress_asset`` and has the AS deliver; returns the delivered ResID."""
    egress = host.acquire(
        deployment.marketplace, bottleneck.isd_as, bottleneck.egress, False,
        START, end, kbps, budget_mist,
    )
    host.redeem_pair(ingress_asset, egress.submitted.effects.returns[0]["asset"])
    (delivered,) = deployment.service(bottleneck.isd_as).poll_and_deliver()
    return delivered.res_id


@dataclass
class CongestionResult:
    """Outcome of :func:`congestion_experiment` for one flow setup."""

    victim: dict
    attacker: dict
    bottleneck_utilization: float


# The congestion experiment's victim, and how long it runs against the flood.
VICTIM_RATE_BPS = 2_000_000.0
CONGESTION_SECONDS = 2.0


def congestion_experiment(
    topology: Topology, path: ForwardingPath, protected: bool
) -> CongestionResult:
    """Victim flow vs. best-effort flood over a shared bottleneck path.

    A :data:`VICTIM_RATE_BPS` victim shares :data:`LINK_RATE_BPS` links with
    a :data:`FLOOD_RATE_BPS` flood for :data:`CONGESTION_SECONDS`.  With
    ``protected=True`` the victim buys a full-path reservation sized to
    its sending rate (``deploy_market``'s listings cover the window);
    otherwise it competes as plain best effort, and no market is deployed.
    The path must have been beaconed with :data:`SIM_PRF` (see
    :func:`linear_path`).
    """
    duration = CONGESTION_SECONDS
    from repro.controlplane import purchase_path
    from repro.invariants import check

    deployment, reservations = None, None
    if protected:
        end = _window_end(duration)
        deployment, simulation = _market(topology, path, asset_duration=end - START)
        reservations = purchase_path(
            deployment,
            deployment.new_host(name="victim"),
            as_crossings(path),
            start=START,
            expiry=end,
            bandwidth_kbps=int(VICTIM_RATE_BPS * 1.25 / 1000),
        ).reservations
    else:
        simulation = build_path_simulation(topology, path)
    victim_metrics = simulation.send(1, VICTIM_RATE_BPS, reservations, jitter=0.05)
    # the flood ramps up shortly after the victim
    attacker_metrics = simulation.send(2, FLOOD_RATE_BPS, delay=0.1, jitter=0.02)
    simulation.run(duration)
    if deployment is not None:
        check(deployment, simulation.now())

    bottleneck = simulation.links[0] if simulation.links else None
    utilization = bottleneck.utilization(duration) if bottleneck else 0.0
    return CongestionResult(
        victim=victim_metrics.summary(),
        attacker=attacker_metrics.summary(),
        bottleneck_utilization=utilization,
    )


@dataclass(frozen=True)
class BuyerOutcome:
    """One buyer's fate in one arm of an experiment.

    ``quoted_price_micromist`` is the per-unit price (µMIST per kbps-second)
    a seller asked of this buyer: the bottleneck's posted quote, an auction's
    reserve, or the dearest leg its plan bought or its path bid faced.
    ``refusal`` says why it was not served, ``None`` when it was; ``metrics``
    is its flow's summary, empty when it sent no simulated traffic.
    """

    buyer: str
    arm: str
    requested_kbps: int
    granted_kbps: int
    quoted_price_micromist: int
    paid_mist: int
    refusal: str | None
    metrics: dict


def admitted(buyers: list[BuyerOutcome]) -> list[BuyerOutcome]:
    """The buyers that were served."""
    return [buyer for buyer in buyers if buyer.refusal is None]


def rejected(buyers: list[BuyerOutcome]) -> list[BuyerOutcome]:
    """The buyers that were refused."""
    return [buyer for buyer in buyers if buyer.refusal is not None]


def jain_index(buyers: list[BuyerOutcome]) -> float:
    """Jain's fairness index over the bandwidth granted to ``buyers``: 1.0
    when every buyer holds the same share (nobody served included), 1/n when
    one of n holds everything."""
    shares = [buyer.granted_kbps for buyer in buyers]
    total = sum(shares)
    if total == 0:
        return 1.0
    return total * total / (len(shares) * sum(share * share for share in shares))


def efficiency(
    buyers: list[BuyerOutcome], valuations_micromist: dict[str, int], capacity_kbps: int
) -> float:
    """Captured valuation: the value served over the best value
    ``capacity_kbps`` could serve, every buyer asking the same bandwidth
    (``ValueError`` otherwise).  1.0 means the window went to exactly the
    buyers who value it most, as an auction's bid order allocates it; posted
    prices allocate by arrival."""
    requests = sorted({buyer.requested_kbps for buyer in buyers})
    if len(requests) > 1:
        raise ValueError(
            f"efficiency needs equal requests, got {requests[0]} and {requests[-1]} kbps"
        )
    per_buyer = requests[0] if requests else 0
    slots = per_buyer and capacity_kbps // per_buyer
    best = sum(
        sorted((valuations_micromist[buyer.buyer] for buyer in buyers), reverse=True)[:slots]
    )
    if best == 0:
        return 1.0
    return sum(valuations_micromist[buyer.buyer] for buyer in admitted(buyers)) / best


@dataclass
class ContentionResult:
    """Outcome of :func:`contention_experiment`."""

    buyers: list[BuyerOutcome]
    capacity_kbps: int
    bottleneck_utilization: float


@dataclass
class FlexMarketResult:
    """Outcome of :func:`flex_market_experiment`: one posted-arm record per
    probe, the start-time slack each declared and the start of the window the
    planner bought it (how far it slid is that start less the peak's)."""

    buyers: list[BuyerOutcome]
    flex_values: tuple[int, ...]
    window_starts: list[int]
    peak_window: tuple[int, int]
    base_price_micromist: int
    peak_price_micromist: int  # scarcity-adjusted restock price in the peak
    curve_times: list[int]
    curve_prices: list[float]  # cheapest probe-sized quote per start time


# The flex experiment's chain, and the start-time slack each of its probes
# declares: one rigid, one that may slide half an hour.
FLEX_CHAIN_ASES = 3
FLEX_VALUES = (0, 1800)


def flex_market_experiment(duration: float = 1.5) -> FlexMarketResult:
    """Price-reactive purchasing end to end: buy the valley, not the peak.

    Builds a *scarcity-priced* market over the path, exhausts the cheap
    capacity in one peak window (a crowd buys it out and redeems, so the
    active calendars spike), has every AS restock the peak at its
    scarcity-adjusted quote, then sends one probe buyer per
    :data:`FLEX_VALUES` ``flex_start`` budget through the full v2 purchase
    workflow (:class:`~repro.marketdata.PathSpec` -> planner -> atomic
    buy-and-redeem).  A zero-flex probe must pay the peak restock price; a
    probe with enough slack slides into the post-peak valley and pays the
    base price.  Each probe's reservations are then *used*: a short
    packet-level simulation runs its flow against a best-effort flood and
    records goodput/latency, proving the valley reservations are as real
    on the data plane as the peak ones.  Each probe's purchase runs under
    a trace named after it.
    """
    from repro.admission import ScarcityPricer
    from repro.controlplane import purchase_path

    probe_rate_bps = 2_000_000.0
    window_seconds = 600
    market_bandwidth_kbps = 100_000

    topology, path = linear_path(FLEX_CHAIN_ASES)
    crossings = as_crossings(path)

    # The probes simulate the windows they bought, each on its own.
    deployment, _ = _market(
        topology,
        path,
        asset_start=START,  # pin the granule anchor for clean windows
        asset_duration=7200,
        asset_bandwidth_kbps=market_bandwidth_kbps,
        price_micromist_per_unit=BASE_PRICE_MICROMIST,
        interface_capacity_kbps=2 * market_bandwidth_kbps,
        pricer=ScarcityPricer(),
    )
    peak = (START + 600, START + 600 + window_seconds)

    # A crowd buys the peak window out at the base price and redeems, so
    # the cheap capacity is gone and the active calendars record the load.
    crowd = deployment.new_host(name="crowd")
    purchase_path(
        deployment,
        crowd,
        crossings,
        start=peak[0],
        expiry=peak[1],
        bandwidth_kbps=market_bandwidth_kbps,
    )

    # Every AS restocks the sold-out peak; the quote now carries the
    # scarcity multiplier, so peak capacity exists again — at a premium.
    peak_price = _list_legs(deployment, crossings, market_bandwidth_kbps, *peak)

    reserve_kbps = int(probe_rate_bps * 1.25 / 1000)  # cover wire overhead
    outcomes: list[BuyerOutcome] = []
    window_starts: list[int] = []
    for flex in FLEX_VALUES:
        buyer = f"probe-flex-{flex}"
        host = deployment.new_host(name=buyer)
        # Trace the whole purchase: plan -> atomic buy-and-redeem tx ->
        # per-AS admission -> sealed delivery.
        with named_trace(buyer):
            outcome = purchase_path(
                deployment,
                host,
                crossings,
                start=peak[0],
                expiry=peak[0] + window_seconds,
                bandwidth_kbps=reserve_kbps,
                flex_start=flex,
            )
        # Use the reservations on the data plane: the probe's protected
        # flow vs a best-effort flood over the bottleneck, simulated at
        # the window the planner actually bought.
        simulation = build_path_simulation(
            topology, path, start_time=float(outcome.quote.start) + 0.1
        )
        victim_metrics = simulation.send(1, probe_rate_bps, outcome.reservations, jitter=0.05)
        simulation.send(2, FLOOD_RATE_BPS, delay=0.05, jitter=0.02)
        simulation.run(duration)
        window_starts.append(outcome.quote.start)
        outcomes.append(
            BuyerOutcome(
                buyer=buyer,
                arm="posted",
                requested_kbps=reserve_kbps,
                granted_kbps=outcome.quote.bandwidth_kbps,
                quoted_price_micromist=max(
                    candidate.listing.price_micromist_per_unit
                    for hop in outcome.quote.hops
                    for candidate in (hop.ingress_candidate, hop.egress_candidate)
                ),
                paid_mist=outcome.price_mist,
                refusal=None,
                metrics=victim_metrics.summary(),
            )
        )

    # Price-over-time curve at the bottleneck ingress: the peak plateau
    # and the valley the flexible probes slid into.
    bottleneck = crossings[1] if len(crossings) > 1 else crossings[0]
    curve_times = list(
        range(START, START + 3600 + window_seconds, window_seconds // 2)
    )
    curve_prices = deployment.indexer.price_curve(
        bottleneck.isd_as,
        bottleneck.ingress,
        True,
        reserve_kbps,
        window_seconds,
        curve_times,
    )
    for crossing in crossings:
        deployment.service(crossing.isd_as).admission.record_capacity_gauges(
            START, START + 7200, owner=str(crossing.isd_as)
        )
    return FlexMarketResult(
        buyers=outcomes,
        flex_values=FLEX_VALUES,
        window_starts=window_starts,
        peak_window=peak,
        base_price_micromist=BASE_PRICE_MICROMIST,
        peak_price_micromist=peak_price,
        curve_times=curve_times,
        curve_prices=curve_prices,
    )


@dataclass
class AuctionExperimentResult:
    """Outcome of :func:`auction_experiment`: posted vs auctioned window, one
    record per buyer and arm (``"posted"``, then ``"auction"``), and each
    buyer's per-unit willingness to pay."""

    buyers: list[BuyerOutcome]
    valuations_micromist: dict[str, int]
    capacity_kbps: int
    supply_kbps: int
    reserve_micromist: int
    clearing_price_micromist: int
    posted_revenue_mist: int
    auction_revenue_mist: int
    posted_peak_kbps: int
    auction_peak_kbps: int
    bottleneck_utilization: float

    @property
    def oversold(self) -> bool:
        """Did either arm commit more than the physical capacity?"""
        return (
            self.posted_peak_kbps > self.capacity_kbps
            or self.auction_peak_kbps > self.capacity_kbps
        )


# The auction buyers' valuations: ``random.Random(VALUATIONS_SEED)``.
VALUATIONS_SEED = 1


def auction_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 10,
    duration: float = 1.5,
) -> AuctionExperimentResult:
    """Sealed-bid uniform-price auction vs posted scarcity prices, head-on.

    The contention workload — ``num_buyers`` buyers, heterogeneous
    willingness to pay, one bottleneck interface window — sold two ways, on
    two deployments that differ only in how the bottleneck AS sells its
    ingress:

    * **posted arm**: buyers arrive in order; the AS lists a buyer's worth
      at its current scarcity quote, and a buyer buys iff the quote is within
      their valuation and the AS's issued calendar still lets it list.
      Arrival order decides who wins the contended window, and early buyers
      pay *less* than late ones — the money the operator's guessed curve
      leaves on the table.
    * **auction arm**: the AS auctions the whole window (reserve = the
      posted quote at open), every buyer seals a bid at its valuation, and
      :meth:`~repro.controlplane.AsService.settle_due_auctions` clears it on
      chain at one uniform price — the highest losing bid.

    Whoever gets the window redeems it at the bottleneck; the auction arm's
    winners also buy the rest of the path and *use* their reservations: a
    packet simulation runs every buyer (winners protected, losers best
    effort) through the bottleneck.  With ``duration = 0`` the packet phase
    is skipped (clearing-only runs).

    Returns:
        An :class:`AuctionExperimentResult`; its ``oversold`` property is
        False iff neither arm committed past physical capacity, and
        ``auction_revenue_mist >= posted_revenue_mist`` whenever demand
        actually contends (the experiment's headline claim, asserted in
        ``tests/netsim/test_netsim.py``).

    The auction arm runs under one trace, ``traced-reservation``, from its
    deployment to the policer's verdict on the first winner's reservation.
    """
    from repro.admission import ACTIVE, ScarcityPricer
    from repro.controlplane import purchase_path
    from repro.invariants import check
    from repro.marketdata import price_mist

    reservable_fraction = 0.8

    simulate = duration > 0
    end = _window_end(duration)
    reserve_kbps = int(PER_BUYER_KBPS * 1.25)  # cover wire overhead
    rng = random.Random(VALUATIONS_SEED)
    valuations = [
        int(BASE_PRICE_MICROMIST * rng.uniform(1.0, 12.0))
        for _ in range(num_buyers)
    ]
    # what each buyer will pay for a rectangle: its valuation, ceil-priced
    budgets = [price_mist(reserve_kbps, end - START, v) for v in valuations]

    # -- posted arm: arrival order vs the scarcity curve -----------------------
    posted, _, bottleneck, capacity_kbps = _contended_market(
        topology, path, end, reservable_fraction, pricer=ScarcityPricer()
    )
    seller = posted.service(bottleneck.isd_as)
    names = [f"buyer-{index}" for index in range(num_buyers)]
    buyers = []
    for index, valuation in enumerate(valuations):
        quote = seller.admission.quote(
            BASE_PRICE_MICROMIST, bottleneck.ingress, True, START, end
        )
        if quote > valuation:
            reason = "priced out"
        else:
            reason = _restock(posted, [(bottleneck, True)], end, reserve_kbps)
        paid = 0
        if reason is None:
            host = posted.new_host(name=names[index])
            bought = host.acquire(
                posted.marketplace, bottleneck.isd_as, bottleneck.ingress, True,
                START, end, reserve_kbps, budgets[index],
            )
            ingress = bought.submitted.effects.returns[0]["asset"]
            _redeem_bottleneck(
                posted, host, bottleneck, ingress, end, reserve_kbps, budgets[index]
            )
            paid = bought.price_mist
        buyers.append(
            BuyerOutcome(
                buyer=names[index],
                arm="posted",
                requested_kbps=reserve_kbps,
                granted_kbps=reserve_kbps if reason is None else 0,
                quoted_price_micromist=quote,
                paid_mist=paid,
                refusal=reason,
                metrics={},
            )
        )

    # -- auction arm: one sealed-bid book, cleared on chain ------------------
    with named_trace("traced-reservation") as trace:
        auctioned, simulation, _, _ = _contended_market(
            topology, path, end, reservable_fraction,
            pricer=ScarcityPricer(), auction_interfaces={(bottleneck.ingress, True)},
        )
        auctioneer = auctioned.service(bottleneck.isd_as)
        opened = auctioneer.offer_capacity(
            auctioned.marketplace, bottleneck.ingress, True, capacity_kbps,
            START, end, BASE_PRICE_MICROMIST,
        )
        auction_id = opened.effects.returns[1]["auction"]
        reserve = auctioneer.open_auctions[auction_id].reserve_micromist_per_unit
        hosts = [auctioned.new_host(name=name) for name in names]
        for host, valuation in zip(hosts, valuations):
            host.bid(auctioned.marketplace, auction_id, reserve_kbps, valuation)
        (settled,) = auctioneer.settle_due_auctions()
        reservations: list = [None] * num_buyers
        settlements = []
        first_win = None  # (buyer index, ResID at the bottleneck from START)
        for index, host in enumerate(hosts):
            settlement = host.await_settle(auctioned.marketplace, auction_id)
            settlements.append(settlement)
            if not settlement.won:
                continue
            res_id = _redeem_bottleneck(
                auctioned, host, bottleneck, settlement.assets[0],
                end, reserve_kbps, budgets[index],
            )
            first_win = first_win or (index, res_id)
            if simulate:
                reservations[index] = purchase_path(
                    auctioned,
                    host,
                    [c for c in as_crossings(path) if c != bottleneck],
                    start=START,
                    expiry=end,
                    bandwidth_kbps=reserve_kbps,
                ).reservations

        # -- data plane: winners protected, everyone sends ----------------------
        policer = simulation.nodes[bottleneck.isd_as].router.policer
        summaries = [{} for _ in range(num_buyers)]
        if simulate:
            flows = [
                simulation.send(
                    index + 1, PER_BUYER_KBPS * 1000.0, reservations[index],
                    delay=0.01 * index, jitter=0.05,
                )
                for index in range(num_buyers)
            ]
            simulation.run(duration)
            summaries = [flow.summary() for flow in flows]
            if trace is not None and first_win is not None:
                index, res_id = first_win
                trace.event(
                    "policer.verdict",
                    isd_as=str(bottleneck.isd_as),
                    ingress=bottleneck.ingress,
                    res_id=res_id,
                    priority_bytes=policer.usage_bytes(bottleneck.ingress, res_id, START),
                    goodput_mbps=summaries[index]["goodput_mbps"],
                )
    buyers += [
        BuyerOutcome(
            buyer=name,
            arm="auction",
            requested_kbps=reserve_kbps,
            granted_kbps=settlement.bandwidth_kbps,
            quoted_price_micromist=reserve,
            paid_mist=settlement.paid_mist,
            refusal=None if settlement.won else next(iter(settlement.reasons), "no bid"),
            metrics=summary,
        )
        for name, settlement, summary in zip(names, settlements, summaries)
    ]
    for deployment in (posted, auctioned):
        check(deployment, simulation.now())

    def peak(deployment) -> int:
        return int(
            deployment.service(bottleneck.isd_as)
            .admission.calendar(bottleneck.ingress, True, ACTIVE)
            .peak_commitment(START, end)
        )

    result = AuctionExperimentResult(
        buyers=buyers,
        valuations_micromist=dict(zip(names, valuations)),
        capacity_kbps=capacity_kbps,
        supply_kbps=settled.supply_kbps,
        reserve_micromist=reserve,
        clearing_price_micromist=settled.clearing_price_micromist,
        posted_revenue_mist=sum(buyer.paid_mist for buyer in buyers if buyer.arm == "posted"),
        auction_revenue_mist=settled.proceeds_mist,
        posted_peak_kbps=peak(posted),
        auction_peak_kbps=peak(auctioned),
        bottleneck_utilization=(
            simulation.links[0].utilization(duration) if simulate else 0.0
        ),
    )
    seller.admission.record_capacity_gauges(START, end, owner="posted-arm")
    auctioneer.admission.record_capacity_gauges(START, end, owner="auction-arm")
    if simulate:
        policer.record_gauges(str(bottleneck.isd_as))
    return result


@dataclass
class PathContentionResult:
    """Outcome of :func:`path_contention_experiment`.

    A buyer paid what the settlement kept of its escrow (``escrows_mist``),
    and a winner holds a piece of every leg.  ``escrow_conserved`` checks
    the on-chain settlement: what the leg sellers were paid equals what the
    buyers paid, to the MIST.  ``failed_hops`` holds each loser's hop from
    the contract's loser report (the first leg that refused it, halved);
    every leg offers the same supply here, so that is hop 0.
    """

    buyers: list[BuyerOutcome]
    escrows_mist: dict[str, int]
    failed_hops: dict[str, int]
    hop_names: list[str]
    hop_capacities_kbps: list[int]
    hop_peaks_kbps: list[int]
    escrow_conserved: bool
    path_auction_winners: int

    @property
    def oversold(self) -> bool:
        """Did any hop commit more than its physical capacity?"""
        return any(
            peak > capacity
            for peak, capacity in zip(self.hop_peaks_kbps, self.hop_capacities_kbps)
        )


def path_contention_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 8,
) -> PathContentionResult:
    """Whole paths contend in one on-chain path auction, all or nothing.

    Every on-path AS contributes its two legs — enough for about half the
    buyers — to one combinatorial path auction
    (:func:`~repro.controlplane.open_path_auction`).  Its calendars admit
    first come, first served, and each interface is twice the offer: the
    deployment's seed asset claims one offer's worth of each issued
    calendar and the auction leg the other.  Each of ``num_buyers`` hosts
    places one escrowed bid for :data:`PER_BUYER_KBPS` on every leg, the
    earlier buyers bidding more.  One
    settle transaction clears every leg at its live supply and awards each
    winner a piece of every leg; a loser is refunded its whole escrow and
    told the first leg that refused it.  The winners redeem their whole
    paths in one transaction each, every AS delivers, and the run ends in
    :func:`repro.invariants.check`.

    Every leg settles at its full offer: nothing is delivered on the window
    before settlement, and under a policy that does not overbook a
    delivered reservation cannot take a leg's live headroom anyway (its
    redeemed assets sit beside the leg in the same issued calendar).  So
    the legs refuse the same bids, and each loser is reported at leg 0,
    hop 0, with ``"supply exhausted"``.  A leg clamped in the middle of a
    path, and a loser evicted from the legs it had won, is
    ``tests/controlplane/test_path_wiring.py``'s case.

    The run — deployment, bids, settlement, redemption, deliveries — lands
    on one trace, ``traced-path``.
    """
    from repro.admission import ACTIVE
    from repro.controlplane import open_path_auction, settle_path_auction
    from repro.invariants import check
    from repro.marketdata import price_mist

    window = (START + 3600, START + 4200)

    crossings = as_crossings(path)
    if len(crossings) < 3:
        raise ValueError("path contention needs at least three on-path ASes")
    offered_kbps = (num_buyers + 1) // 2 * PER_BUYER_KBPS
    num_legs = 2 * len(crossings)
    with named_trace("traced-path"):
        # Room for the seed asset and the auction leg on every interface.
        deployment, simulation = _market(
            topology,
            path,
            asset_bandwidth_kbps=offered_kbps,
            interface_capacity_kbps=2 * offered_kbps,
        )
        path_auction = open_path_auction(
            deployment, crossings, *window, bandwidth_kbps=offered_kbps
        )
        # the dearest leg's reserve: what a path bid faces per unit and leg
        reserve = max(
            leg["reserve_micromist_per_unit"]
            for leg in deployment.indexer.auction(path_auction).legs
        )
        hosts, escrows = [], {}
        for index in range(num_buyers):
            host = deployment.new_host(name=f"buyer-{index}")
            unit_price = (num_buyers + 1 - index) * BASE_PRICE_MICROMIST
            acquired = host.acquire_path(
                deployment.marketplace, crossings, *window,
                bandwidth_kbps=PER_BUYER_KBPS,
                max_price_mist=num_legs * price_mist(
                    PER_BUYER_KBPS, window[1] - window[0], unit_price
                ),
            )
            hosts.append(host)
            escrows[host.account.name] = acquired.submitted.effects.returns[0]["escrow_mist"]
        simulation.clock.set(float(window[0]))
        settle_path_auction(deployment, path_auction)
        payload = deployment.indexer.settlement(path_auction)
        losses = {loser["bidder"]: loser for loser in payload["losers"]}
        outcomes, failed_hops = [], {}
        for host in hosts:
            name = host.account.name
            settlement = host.await_settle(deployment.marketplace, path_auction)
            if settlement.won:
                host.redeem_path(
                    list(zip(settlement.assets[0::2], settlement.assets[1::2]))
                )
            loss = losses.get(host.account.address)
            if loss is not None:
                failed_hops[name] = loss["leg"] // 2
            outcomes.append(
                BuyerOutcome(
                    buyer=name,
                    arm="path-auction",
                    requested_kbps=PER_BUYER_KBPS,
                    granted_kbps=settlement.bandwidth_kbps,
                    quoted_price_micromist=reserve,
                    paid_mist=escrows[name] - settlement.refund_mist,
                    refusal=None if loss is None else loss["reason"],
                    metrics={},
                )
            )
        for crossing in crossings:
            deployment.service(crossing.isd_as).poll_and_deliver()
    check(deployment, simulation.now())

    services = [deployment.service(crossing.isd_as) for crossing in crossings]
    paid = sum(winner["paid_mist"] for winner in payload["winners"])
    result = PathContentionResult(
        buyers=outcomes,
        escrows_mist=escrows,
        failed_hops=failed_hops,
        hop_names=[str(crossing.isd_as) for crossing in crossings],
        hop_capacities_kbps=[service.admission.capacity_kbps for service in services],
        hop_peaks_kbps=[
            max(
                service.admission.calendar(interface, is_ingress, ACTIVE)
                .peak_commitment(*window)
                for interface, is_ingress in (
                    (crossing.ingress, True), (crossing.egress, False)
                )
            )
            for service, crossing in zip(services, crossings)
        ],
        escrow_conserved=paid == sum(outcome.paid_mist for outcome in outcomes),
        path_auction_winners=len(payload["winners"]),
    )
    for service in services:
        service.admission.record_capacity_gauges(
            *window, owner=f"path-hop-{service.isd_as}"
        )
    return result


def contention_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 8,
    duration: float = 1.5,
) -> ContentionResult:
    """Many buyers compete for one bottleneck interface's capacity.

    Buyers arrive in order.  For each, the bottleneck AS lists
    ``1.25 *`` :data:`PER_BUYER_KBPS` (rate plus header overhead) more of its
    ingress at its scarcity quote, against an issued calendar sized to
    ``reservable_fraction`` of the bottleneck link; the buyer buys it with
    the rest of the path, redeems, and sends at :data:`PER_BUYER_KBPS` with
    priority protection.  A buyer the AS can no longer list for *falls back
    to best effort* and fights over whatever the reserved traffic leaves
    behind.  Quoted prices rise with utilization, so the result doubles as a
    price-discovery trace.  Buyer-0's purchase runs under a trace named
    after it, which ends in the policer's verdict on its reservation.
    """
    from repro.admission import ScarcityPricer
    from repro.controlplane import purchase_path
    from repro.invariants import check

    reservable_fraction = 0.8

    end = _window_end(duration)
    deployment, simulation, bottleneck, capacity_kbps = _contended_market(
        topology, path, end, reservable_fraction, pricer=ScarcityPricer()
    )
    seller = deployment.service(bottleneck.isd_as)
    reserve_kbps = int(PER_BUYER_KBPS * 1.25)  # cover wire overhead
    facts = []  # (buyer, quote, paid, refusal) in arrival order
    flow_metrics: list[FlowMetrics] = []
    verdict = None  # buyer-0's trace and ResID at the bottleneck
    for index in range(num_buyers):
        buyer = f"buyer-{index}"
        quote = seller.admission.quote(
            BASE_PRICE_MICROMIST, bottleneck.ingress, True, START, end
        )
        # Trace buyer-0's lifecycle end to end (admission through policer).
        reservations, paid = None, 0
        with (named_trace(buyer) if index == 0 else use_trace(None)) as trace:
            refusal = _restock(deployment, [(bottleneck, True)], end, reserve_kbps)
            if refusal is None:
                bought = purchase_path(
                    deployment,
                    deployment.new_host(name=buyer),
                    as_crossings(path),
                    start=START,
                    expiry=end,
                    bandwidth_kbps=reserve_kbps,
                )
                reservations, paid = bought.reservations, bought.price_mist
        if trace is not None and reservations:
            verdict = trace, next(
                r.resinfo for r in reservations if r.isd_as == bottleneck.isd_as
            )
        # slight stagger, arrival order = index order
        flow_metrics.append(
            simulation.send(
                index + 1, PER_BUYER_KBPS * 1000.0, reservations,
                delay=0.01 * index, jitter=0.05,
            )
        )
        facts.append((buyer, quote, paid, refusal))

    simulation.run(duration)
    check(deployment, simulation.now())
    outcomes = [
        BuyerOutcome(
            buyer=buyer,
            arm="posted",
            requested_kbps=reserve_kbps,
            granted_kbps=reserve_kbps if refusal is None else 0,
            quoted_price_micromist=quote,
            paid_mist=paid,
            refusal=refusal,
            metrics=metrics.summary(),
        )
        for (buyer, quote, paid, refusal), metrics in zip(facts, flow_metrics)
    ]

    link = simulation.links[0]
    result = ContentionResult(
        buyers=outcomes,
        capacity_kbps=capacity_kbps,
        bottleneck_utilization=link.utilization(duration),
    )
    seller.admission.record_capacity_gauges(START, end, owner="bottleneck-as")
    policer = simulation.nodes[bottleneck.isd_as].router.policer
    policer.record_gauges(str(bottleneck.isd_as))
    if verdict is not None:
        trace, resinfo = verdict
        trace.event(
            "policer.verdict",
            isd_as=str(bottleneck.isd_as),
            ingress=bottleneck.ingress,
            res_id=resinfo.res_id,
            priority_bytes=policer.usage_bytes(bottleneck.ingress, resinfo.res_id, resinfo.start),
        )
    return result


@dataclass
class ReclamationArmResult:
    """One policy arm of :func:`reclamation_experiment`: a record per buyer,
    named for its kind (``"no-show-<i>"``, ``"honest-<i>"``, ``"late-<i>"``),
    and the simulated time each buyer that got a reservation bought it."""

    arm: str
    capacity_kbps: int
    buyers: list[BuyerOutcome]
    admitted_at: dict[str, float]
    revenue_mist: int
    reserved_goodput_bps: float
    honest_demotions: int
    reclaim_events: int
    reclaimed_kbps: int
    false_reclaims: int
    live_factor: float
    bottleneck_utilization: float

    # revenue_mist is the bottleneck AS's coin balance at the end of the run:
    # what its sales earned on the ledger, both of its legs.


@dataclass
class ReclamationResult:
    """All arms of :func:`reclamation_experiment`, keyed by arm name."""

    arms: dict


def reclamation_experiment(
    topology: Topology,
    path: ForwardingPath,
    duration: float = 3.0,
) -> ReclamationResult:
    """The closed control loop vs an open one, on an overbooked bottleneck.

    Three arms share one scenario, each on its own :func:`_contended_market`
    deployment: ``num_buyers`` early buyers buy the whole bottleneck, but
    ``num_no_shows`` of them never send a packet; ``num_late`` more buyers
    arrive wanting the same window.  Every buyer is a host that buys,
    redeems and decrypts its path through
    :func:`~repro.controlplane.purchase_path`; the bottleneck AS lists one
    buyer's worth of its ingress per sale, and for a late buyer every
    on-path AS lists one buyer's worth of each leg too, so every leg is
    judged by the arm's policy (the early buyers' legs are the ones
    :func:`_contended_market` lists).

    * ``"none"`` — no overbooking: the no-shows' bandwidth stays parked,
      late buyers are turned away to best effort.
    * ``"static"`` — a fixed overbooking factor lets the ASes sell to some
      late buyers up front, but nothing ever reclaims the no-shows.
    * ``"adaptive"`` — :class:`~repro.reclaim.AdaptiveOverbooking` plus the
      deployment's reclamation loop
      (:meth:`~repro.controlplane.AsService.reclaim_no_shows` on every
      on-path AS at each scan, fed and capped by that AS's own router's
      policer): no-shows are detected from observed usage, their active
      calendar bandwidth is reclaimed, demoted at the policer and relisted,
      the factor each interface direction learns lets the ASes sell to the
      waiting buyers mid-run, and it converges on the observed show-up rate.

    A late buyer refused at arrival retries at every scan; one still
    waiting at the end sent nothing.  ``revenue_mist`` is what the
    bottleneck AS earned on the ledger, and every arm ends in
    :func:`repro.invariants.check`.  The closed loop must dominate: at
    least the revenue and at least the reserved-traffic goodput of both
    open arms, with zero policer demotions of honest traffic
    (``tests/netsim/test_reclamation.py`` asserts all three).
    """
    from repro.admission import ACTIVE, AdmissionPolicy
    from repro.contracts.coin import coin_balance
    from repro.controlplane import purchase_path
    from repro.invariants import check
    from repro.reclaim import AdaptiveOverbooking

    num_buyers = 8
    num_no_shows = 4
    num_late = 4
    per_buyer_kbps = 1000
    reservable_fraction = 1.0
    static_factor = 1.25
    max_factor = 3.0
    scan_interval = 0.25

    def run_arm(arm: str, policy, reclaims: bool) -> ReclamationArmResult:
        end = _window_end(duration)
        # The default flat pricer keeps revenue proportional to volume sold,
        # so the arm comparison measures reclamation, not price spikes.
        deployment, simulation, bottleneck, capacity_kbps = _contended_market(
            topology, path, end, reservable_fraction,
            admission_policy=policy, reclaims=reclaims,
        )
        crossings = as_crossings(path)
        seller = deployment.service(bottleneck.isd_as)
        # The early buyers fill exactly what _contended_market lists on the
        # other legs, so a late buyer has every leg restocked for it.
        legs = [(bottleneck, True)] + [
            (crossing, is_ingress)
            for crossing in crossings
            for is_ingress in (True, False)
            if (crossing, is_ingress) != (bottleneck, True)
        ]
        reserve_kbps = int(per_buyer_kbps * 1.25)  # cover wire overhead
        # Early buyers: the first num_no_shows never send a packet.  Late
        # buyers: bought now if the arm's policy has room, retried at every
        # scan otherwise; a buyer still waiting at the end sent nothing.
        kinds = (
            ["no-show"] * num_no_shows
            + ["honest"] * (num_buyers - num_no_shows)
            + ["late"] * num_late
        )
        names = [f"{kind}-{index}" for index, kind in enumerate(kinds)]
        # by buyer: the quote it bought at, else its first refusal's quote
        # and reason; what it paid and when; its flow's metrics
        quotes, refusals, paid, admitted_at, flow_metrics = {}, {}, {}, {}, {}

        def buy(index: int) -> bool:
            """One purchase attempt; a bought path sends unless its buyer is
            a no-show."""
            name, kind = names[index], kinds[index]
            quote = seller.admission.quote(
                BASE_PRICE_MICROMIST, bottleneck.ingress, True, START, end
            )
            refusal = _restock(
                deployment, legs if kind == "late" else legs[:1], end, reserve_kbps
            )
            if refusal is not None:
                quotes.setdefault(name, quote)
                refusals.setdefault(name, refusal)
                return False
            bought = purchase_path(
                deployment,
                deployment.new_host(name=name),
                crossings,
                start=START,
                expiry=end,
                bandwidth_kbps=reserve_kbps,
            )
            if kind != "no-show":
                flow_metrics[name] = simulation.send(
                    index + 1, per_buyer_kbps * 1000.0, bought.reservations,
                    delay=0.005 * index, jitter=0.05,
                )
            quotes[name] = quote
            paid[name] = bought.price_mist
            admitted_at[name] = simulation.now()
            return True

        waiting = [index for index in range(len(names)) if not buy(index)]
        # Scans strictly inside the run: one at its end would judge and
        # admit nothing anyone could use.
        end_time = simulation.now() + duration
        scan_at = simulation.now() + scan_interval
        while scan_at < end_time:
            simulation.loop.run_until(scan_at)
            scan_at += scan_interval
            for crossing in crossings:
                deployment.service(crossing.isd_as).reclaim_no_shows()
            waiting = [index for index in waiting if not buy(index)]
        simulation.run(end_time - simulation.now())
        check(deployment, simulation.now())

        outcomes = [
            BuyerOutcome(
                buyer=name,
                arm=arm,
                requested_kbps=reserve_kbps,
                granted_kbps=reserve_kbps if name in admitted_at else 0,
                quoted_price_micromist=quotes[name],
                paid_mist=paid.get(name, 0),
                refusal=None if name in admitted_at else refusals[name],
                metrics=flow_metrics[name].summary() if name in flow_metrics else {},
            )
            for name in names
        ]
        reserved_goodput = sum(
            metrics.goodput_bps(duration) for metrics in flow_metrics.values()
        )
        honest_demotions = sum(
            stats.demoted_overuse + stats.demoted_inactive + stats.demoted_stale
            for stats in (node.router.stats for node in simulation.nodes.values())
        )
        loop = seller.reclamation
        events = loop.events if reclaims else []
        return ReclamationArmResult(
            arm=arm,
            capacity_kbps=capacity_kbps,
            buyers=outcomes,
            admitted_at=admitted_at,
            revenue_mist=coin_balance(deployment.ledger, seller.account.address),
            reserved_goodput_bps=reserved_goodput,
            honest_demotions=honest_demotions,
            reclaim_events=len(events),
            reclaimed_kbps=sum(event.freed_kbps for event in events),
            false_reclaims=loop.false_reclaims if reclaims else 0,
            live_factor=policy.limit_factor(
                seller.admission.calendar(bottleneck.ingress, True, ACTIVE)
            ),
            bottleneck_utilization=simulation.links[0].utilization(duration),
        )

    arms = {}
    for arm, policy, reclaims in (
        ("none", AdmissionPolicy(), False),
        ("static", AdmissionPolicy(static_factor), False),
        ("adaptive", AdaptiveOverbooking(max_factor=max_factor), True),
    ):
        arms[arm] = run_arm(arm, policy, reclaims)
    return ReclamationResult(arms=arms)
