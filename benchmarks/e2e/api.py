"""The one module through which the benchmark calls into ``repro``.

Every name the benchmark needs from the program is imported here and
nowhere else under ``benchmarks/e2e/``, so the pinned API surface is this
import block.  An API-reshaping PR keeps these names importable (or a
``benchmark`` issue re-pins them); the workloads only ever call the thin
functions below.

Nothing here is timed or traced by itself: the harness times the calls
the workloads make, and the tracer wraps the program's own callables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.admission import ScarcityPricer
from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import deploy_market, execute_transfer, purchase_path
from repro.crypto.prf import PrfFactory
from repro.hummingbird import (
    HummingbirdRouter,
    HummingbirdSource,
    ScionBestEffortSource,
)
from repro.netsim import SIM_PRF, CbrSource, FloodSource, build_path_simulation
from repro.scion import (
    HostAddr,
    PathLookup,
    ScionAddr,
    as_crossings,
    linear_topology,
    run_beaconing,
)
from repro.scion.router import Action

T0 = 1_700_000_000  # every simulated clock starts here

AES_PRF = PrfFactory("aes")  # the paper's PRF; what routers run in production
BLAKE2_PRF = SIM_PRF  # the simulator's cheap PRF

FORWARD = Action.FORWARD
FORWARD_PRIORITY = Action.FORWARD_PRIORITY
DELIVER = Action.DELIVER
DROP = Action.DROP


# -- topology ----------------------------------------------------------------


@dataclass
class Chain:
    """A linear AS chain with its leaf-to-core forwarding path."""

    topology: object
    path: object
    crossings: list
    prf: PrfFactory
    src: ScionAddr
    dst: ScionAddr


def build_chain(num_ases: int, prf: PrfFactory) -> Chain:
    topology = linear_topology(num_ases)
    store = run_beaconing(topology, timestamp=T0, prf_factory=prf)
    path = PathLookup(store).find_paths(
        topology.ases[-1].isd_as, topology.ases[0].isd_as
    )[0]
    return Chain(
        topology=topology,
        path=path,
        crossings=as_crossings(path),
        prf=prf,
        src=ScionAddr(path.src, HostAddr.from_string("10.0.0.1")),
        dst=ScionAddr(path.dst, HostAddr.from_string("10.0.0.2")),
    )


# -- control plane -----------------------------------------------------------


@dataclass
class Tx:
    """One submitted transaction, as the submission tap saw it."""

    sender: str
    commands: int
    ok: bool
    gas_sui: float
    sim_latency_s: float


@dataclass
class Market:
    """A deployed market plus the benchmark's view of what was submitted."""

    deployment: object
    chain: Chain
    clock: SimClock
    txs: list = field(default_factory=list)
    seller_addresses: frozenset = frozenset()

    @property
    def marketplace(self) -> str:
        return self.deployment.marketplace

    def service(self, crossing):
        return self.deployment.service(crossing.isd_as)

    def host_txs(self, since: int) -> list:
        """Transactions hosts submitted from log position ``since`` on."""
        return [tx for tx in self.txs[since:] if tx.sender not in self.seller_addresses]


def deploy(chain: Chain, seed: int, **market_options) -> Market:
    """``deploy_market`` over the chain, with a tap on the executor.

    The tap is the benchmark's only always-on observation of the program:
    an instance attribute on this deployment's executor that logs sender,
    gas and simulated latency of every transaction (gas per lifecycle is an
    end-to-end metric, so it must be measurable with tracing off).  It
    resolves ``submit`` on the class at call time, so a tracer wrapping
    ``LedgerExecutor.submit`` still sees every call.
    """
    clock = SimClock(float(T0))
    deployment = deploy_market(
        chain.topology, clock=clock, seed=seed, prf_factory=chain.prf, **market_options
    )
    market = Market(deployment=deployment, chain=chain, clock=clock)
    executor = deployment.executor

    def submit(transaction):
        submitted = type(executor).submit(executor, transaction)
        effects = submitted.effects
        market.txs.append(
            Tx(
                sender=transaction.sender,
                commands=len(transaction.commands),
                ok=effects.ok,
                gas_sui=effects.gas.total_sui,
                sim_latency_s=submitted.latency,
            )
        )
        return submitted

    executor.submit = submit
    market.seller_addresses = frozenset(
        service.account.address for service in deployment.services.values()
    )
    return market


def scarcity_pricer():
    return ScarcityPricer()


def new_host(market: Market, funding_sui: float = 100.0):
    return market.deployment.new_host(funding_sui=funding_sui)


def purchase(market: Market, host, start: int, expiry: int, bandwidth_kbps: int):
    """Quote, pre-flight, atomic buy+redeem, deliveries, collect+decrypt."""
    return purchase_path(
        market.deployment,
        host,
        market.chain.crossings,
        start=start,
        expiry=expiry,
        bandwidth_kbps=bandwidth_kbps,
    )


def transfer(
    market: Market, host, bytes_total: int, release: int, deadline: int, max_rate_kbps
):
    """Plan "N bytes by T", execute it in one transaction, deliver, collect."""
    return execute_transfer(
        market.deployment,
        host,
        market.chain.crossings,
        bytes_total,
        deadline,
        release=release,
        max_rate_kbps=max_rate_kbps,
    )


def issue_and_list(
    market: Market, crossing, is_ingress: bool, bandwidth_kbps: int,
    start: int, expiry: int, price_micromist: int,
) -> None:
    interface = crossing.ingress if is_ingress else crossing.egress
    _accepted(
        market.service(crossing).issue_and_list(
            market.marketplace, interface, is_ingress, bandwidth_kbps, start, expiry,
            price_micromist,
        ),
        "issue/list",
    )


def open_auction(
    market: Market, crossing, bandwidth_kbps: int, start: int, expiry: int,
    reserve_base_micromist: int,
):
    """Open a sealed-bid auction on the crossing's ingress; returns its record."""
    service = market.service(crossing)
    opened = _accepted(
        service.open_auction(
            market.marketplace, crossing.ingress, True, bandwidth_kbps, start, expiry,
            reserve_base_micromist,
        ),
        "open_auction",
    )
    return service.open_auctions[opened.effects.returns[1]["auction"]]


def _accepted(submitted, what: str):
    if not submitted.effects.ok:
        raise RuntimeError(f"{what} refused: {submitted.effects.error}")
    return submitted


def place_bid(
    market: Market, host, auction_id: str, bandwidth_kbps: int, budget_mist: int
) -> None:
    _accepted(
        host.place_bid(market.marketplace, auction_id, bandwidth_kbps, budget_mist), "bid"
    )


def settle(market: Market, crossing) -> list:
    """Seller side at the window boundary: mirror the bids, settle on chain."""
    service = market.service(crossing)
    service.poll_bids()
    return service.settle_due_auctions()


def await_settle(market: Market, host, auction_id: str):
    return host.await_settle(market.marketplace, auction_id)


def buy_posted_egress(
    market: Market, host, crossing, start: int, expiry: int, bandwidth_kbps: int
) -> tuple[str, int]:
    """Buy the crossing's posted egress piece; returns (asset id, MIST paid)."""
    bought = host.acquire(
        market.marketplace, crossing.isd_as, crossing.egress, False, start, expiry,
        bandwidth_kbps, max_price_mist=10**9,
    )
    if bought.mode != "bought":
        raise RuntimeError(f"expected a posted purchase, got {bought.mode!r}")
    _accepted(bought.submitted, "posted purchase")
    return bought.submitted.effects.returns[0]["asset"], bought.price_mist


def redeem_pair(host, ingress_asset: str, egress_asset: str) -> None:
    _accepted(host.redeem_pair(ingress_asset, egress_asset), "redeem")


def poll_and_deliver(market: Market, crossing) -> list:
    return market.service(crossing).poll_and_deliver()


def collect_reservations(host) -> list:
    return host.collect_reservations()


def balance_mist(market: Market, host) -> int:
    """Every coin the host owns, summed (derives its address: not for timed code)."""
    return coin_balance(market.deployment.ledger, host.account.address)


# -- data plane --------------------------------------------------------------


def build_routers(chain: Chain, clock) -> dict:
    return {
        autonomous_system.isd_as: HummingbirdRouter(autonomous_system, clock, chain.prf)
        for autonomous_system in chain.topology.ases
    }


def reserved_source(chain: Chain, reservations: list, clock) -> HummingbirdSource:
    return HummingbirdSource(
        chain.src, chain.dst, chain.path, reservations, clock, chain.prf
    )


def best_effort_source(chain: Chain) -> ScionBestEffortSource:
    return ScionBestEffortSource(chain.src, chain.dst, chain.path)


def wire_bytes(source, payload_bytes: int) -> int:
    """Bytes the policer charges for one packet (payload + headers)."""
    return payload_bytes + source.header_bytes()


def reserved_kbps(reservation) -> int:
    return reservation.resinfo.bandwidth_kbps


def reservation_start(reservation) -> int:
    return reservation.resinfo.start


def walk(chain: Chain, routers: dict, packet) -> list:
    """Hand ``packet`` from router to router; returns each router's action.

    No link is crossed: the next router sees the packet at the same clock
    reading, which is what makes the per-packet time pure processing cost.
    """
    actions = []
    current, ingress = chain.path.src, 0
    while True:
        decision = routers[current].process(packet, ingress)
        actions.append(decision.action)
        if not decision.forwarded:
            return actions
        interface = chain.topology.as_of(current).interfaces[decision.egress_ifid]
        current, ingress = interface.neighbor, interface.neighbor_ifid


def flip_mac_byte(packet) -> None:
    """Corrupt the AggMAC of the hop field the first router will check."""
    _, _, _, hop = packet.path.current()
    hop.mac = bytes([hop.mac[0] ^ 0x01]) + hop.mac[1:]


def flyover_forwarded(routers: dict) -> int:
    return sum(router.stats.flyover_forwarded for router in routers.values())


def demoted_stale(routers: dict) -> int:
    return sum(router.stats.demoted_stale for router in routers.values())


# -- simulator ---------------------------------------------------------------


@dataclass
class FloodSimulation:
    """A reserved CBR victim and a best-effort flood sharing one path."""

    simulation: object
    victim: CbrSource
    flood: FloodSource
    victim_flow: object
    flood_flow: object

    @property
    def now(self) -> float:
        return self.simulation.clock.now()

    def run_until(self, end_time: float) -> int:
        return self.simulation.loop.run_until(end_time)

    def stop_sources(self) -> None:
        self.victim.stop()
        self.flood.stop()

    @property
    def injected(self) -> int:
        return self.victim_flow.sent_packets + self.flood_flow.sent_packets

    @property
    def events_run(self) -> int:
        return self.simulation.loop.events_run

    def link_stats(self) -> list:
        return [link.stats for link in self.simulation.links]

    def router_totals(self) -> dict:
        stats = [node.router.stats for node in self.simulation.nodes.values()]
        return {
            "flyover_forwarded": sum(s.flyover_forwarded for s in stats),
            "demoted": sum(
                s.demoted_stale + s.demoted_inactive + s.demoted_overuse
                + s.demoted_duplicate
                for s in stats
            ),
            "dropped": sum(s.dropped for s in stats),
        }


def build_flood_simulation(
    chain: Chain, reservations: list, start_time: float, victim_bps: float,
    flood_bps: float, link_bps: float, payload_bytes: int, seed: int,
) -> FloodSimulation:
    simulation = build_path_simulation(
        chain.topology, chain.path, start_time=start_time, link_rate_bps=link_bps,
        prf_factory=chain.prf,
    )
    rng = random.Random(seed)
    victim_flow = simulation.sink.flow(1)
    victim = CbrSource(
        simulation.loop, simulation.hummingbird_source(reservations), simulation.entry,
        victim_flow, rate_bps=victim_bps, payload_bytes=payload_bytes, flow_id=1,
        jitter=0.05, rng=rng,
    )
    flood_flow = simulation.sink.flow(2)
    flood = FloodSource(
        simulation.loop, simulation.best_effort_source(), simulation.entry,
        flood_flow, rate_bps=flood_bps, payload_bytes=payload_bytes, flow_id=2,
        jitter=0.02, rng=rng,
    )
    victim.start(0.0)
    flood.start(rng.uniform(0.02, 0.08))
    return FloodSimulation(simulation, victim, flood, victim_flow, flood_flow)
