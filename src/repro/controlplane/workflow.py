"""End-to-end control-plane orchestration and the Fig. 4 latency experiment.

``MarketDeployment`` wires everything together: ledger + contracts,
registered AS services with listed assets for every interface, and funded
host clients.  ``purchase_path`` runs the full reservation workflow of
Fig. 2 for a list of AS crossings and reports the latency breakdown the
paper plots in Fig. 4:

* **request** — the atomic buy-and-redeem transaction: it touches the
  shared marketplace, so it takes the consensus path;
* **response** — until all per-AS deliveries arrive: each AS observes the
  redeem event (checkpoint-polling delay), computes the reservation, and
  delivers it via an owned-object fast-path transaction; the phase ends
  when the *slowest* AS's delivery reaches the buyer;
* **total** = request + response.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.admission import DEFAULT_SHARD_SECONDS, AdmissionController
from repro.clock import Clock, SimClock
from repro.contracts.asset import AssetContract
from repro.contracts.coin import CoinContract
from repro.contracts.market import MarketContract
from repro.controlplane.asclient import AsService, PathSettlementRecord
from repro.controlplane.hostclient import HostClient
from repro.controlplane.pki import CpPki
from repro.marketdata import MarketIndexer, PathSpec, PurchasePlanner
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.hummingbird.reservation import FlyoverReservation
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.committee import Committee
from repro.ledger.executor import LedgerExecutor
from repro.ledger.transactions import Command, Transaction
from repro.scion.addresses import IsdAs
from repro.scion.paths import AsCrossing
from repro.scion.topology import Topology

DEFAULT_PRICE_MICROMIST = 50  # posted price per kbps-second
DEFAULT_ASSET_BANDWIDTH_KBPS = 10_000_000  # 10 Gbps per interface direction


@dataclass
class LatencyBreakdown:
    """Fig. 4 measurement: request / response / total, in seconds."""

    request: float
    response: float

    @property
    def total(self) -> float:
        return self.request + self.response


@dataclass
class PurchaseOutcome:
    """Everything the host got out of one atomic path purchase.

    ``price_mist`` is the authoritative total the ``Sold`` events report
    on-chain; ``estimated_price_mist`` is what the plan quoted before
    submission — equal in a calm market, and the ``max_price_mist`` guard
    keeps any divergence inside the caller's budget.
    """

    reservations: list[FlyoverReservation]
    latency: LatencyBreakdown
    price_mist: int
    gas: object  # GasSummary of the buy-and-redeem transaction
    estimated_price_mist: int = 0
    quote: object = None  # the PathQuote the purchase executed


class Misdelivery(RuntimeError):
    """An on-path AS delivered a record other than the one its hop's redeem
    request asked for.

    The purchase's collect has already consumed every delivery it saw, so
    ``reservations`` carries what it returned: the hops delivered as asked,
    and any other delivery this host collected in the same call.
    """

    reservations: list[FlyoverReservation]


@dataclass
class MarketDeployment:
    """A fully wired control plane over a topology."""

    topology: Topology
    ledger: Ledger
    executor: LedgerExecutor
    marketplace: str
    clock: Clock
    rng: random.Random  # account keys and every host's redeem keys
    services: dict = field(default_factory=dict)  # IsdAs -> AsService
    indexer: MarketIndexer = field(init=False)

    def __post_init__(self) -> None:
        self.indexer = MarketIndexer(self.ledger, self.marketplace)
        # The deployment-wide planner over the shared off-chain index.
        self.planner = PurchasePlanner(self.indexer)

    def service(self, isd_as) -> AsService:
        return self.services[isd_as]

    def new_host(self, funding_sui: float = 100.0, name: str = "host") -> HostClient:
        account = Account.generate(self.rng, name)
        host = HostClient(account, self.executor, self.rng)
        host.fund(sui_to_mist(funding_sui))
        host.attach_indexer(self.marketplace, self.indexer)
        return host


def deploy_market(
    topology: Topology,
    clock: Clock | None = None,
    seed: int = 7,
    asset_start: int | None = None,
    asset_duration: int = 3600,
    asset_bandwidth_kbps: int = DEFAULT_ASSET_BANDWIDTH_KBPS,
    price_micromist_per_unit: int = DEFAULT_PRICE_MICROMIST,
    prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
    interface_capacity_kbps: int | None = None,
    admission_policy=None,
    pricer=None,
    shard_seconds: float = DEFAULT_SHARD_SECONDS,
    auction_interfaces=None,
    policer_of=None,
) -> MarketDeployment:
    """Stand up ledger, contracts, marketplace, and one service per AS.

    Every AS registers, then issues and lists one large ingress asset and
    one large egress asset per interface (plus the AS-internal interface 0,
    so first/last-hop reservations work).

    ``interface_capacity_kbps`` sets each AS's physical per-interface
    capacity (default: exactly the issued asset bandwidth, so the seed
    deployment fills every admission calendar without headroom);
    ``admission_policy`` and ``pricer`` configure each AS's
    :class:`~repro.admission.AdmissionController`; ``shard_seconds``
    is the shard width of its calendars (default a day);
    ``auction_interfaces`` (a set of ``(interface, is_ingress)`` pairs)
    puts those interface directions into sealed-bid auction mode — the
    seed listings are still posted, but
    :meth:`~repro.controlplane.asclient.AsService.offer_capacity` on such
    an interface opens an auction instead of a listing.

    ``policer_of`` (``isd_as -> policer or None``) arms every AS's no-show
    reclamation loop
    (:meth:`~repro.controlplane.asclient.AsService.enable_reclamation`),
    bound to that AS's own data-plane policer, which the loop both samples
    and caps; an AS without one runs its loop on an empty usage feed and
    demotes nothing.  The loop relists on this deployment's marketplace at
    ``price_micromist_per_unit``.

    The one place a seed becomes randomness: ``random.Random(f"{seed}/{purpose}")``
    per purpose — ``keys`` (``rng``: every account and redeem key), ``pki``
    (the trust anchor's root), ``latency`` (the committee: every submit and
    poll delay, so no key draw moves simulated time), ``sealing/<isd-as>``.
    """

    def stream(purpose: str) -> random.Random:
        return random.Random(f"{seed}/{purpose}")

    rng = stream("keys")
    clock = clock if clock is not None else SimClock()
    pki = CpPki(stream("pki"))
    ledger = Ledger()
    ledger.register_contract(CoinContract())
    ledger.register_contract(AssetContract(pki))
    ledger.register_contract(MarketContract())
    executor = LedgerExecutor(ledger, Committee(stream("latency")), clock)

    operator = Account.generate(rng, "market-operator")
    created = executor.submit(
        Transaction(
            sender=operator.address,
            commands=[Command("market", "create_marketplace", {})],
        )
    )
    if not created.effects.ok:
        raise RuntimeError(f"marketplace creation failed: {created.effects.error}")
    marketplace = created.effects.returns[0]["marketplace"]

    start = int(clock.now()) if asset_start is None else asset_start
    services: dict = {}
    for autonomous_system in topology.ases:
        account = Account.generate(rng, f"as-{autonomous_system.isd_as}")
        capacity = (
            interface_capacity_kbps
            if interface_capacity_kbps is not None
            else asset_bandwidth_kbps
        )
        service = AsService(
            autonomous_system,
            account,
            executor,
            pki,
            rng=stream(f"sealing/{autonomous_system.isd_as}"),
            prf_factory=prf_factory,
            admission=AdmissionController(
                capacity,
                policy=admission_policy,
                pricer=pricer,
                shard_seconds=shard_seconds,
                auction_interfaces=auction_interfaces,
            ),
        )
        registered = service.register()
        if not registered.effects.ok:
            raise RuntimeError(f"AS registration failed: {registered.effects.error}")
        service.register_as_seller(marketplace)
        interfaces = [0] + sorted(autonomous_system.interfaces)
        for interface in interfaces:
            for is_ingress in (True, False):
                listed = service.issue_and_list(
                    marketplace,
                    interface,
                    is_ingress,
                    asset_bandwidth_kbps,
                    start,
                    start + asset_duration,
                    price_micromist_per_unit,
                )
                if not listed.effects.ok:
                    raise RuntimeError(f"issue/list failed: {listed.effects.error}")
        if policer_of is not None:
            service.enable_reclamation(
                policer_of(autonomous_system.isd_as), marketplace, price_micromist_per_unit
            )
        services[autonomous_system.isd_as] = service

    return MarketDeployment(
        topology=topology,
        ledger=ledger,
        executor=executor,
        marketplace=marketplace,
        services=services,
        clock=clock,
        rng=rng,
    )


def _poll(deployment: MarketDeployment, crossing: AsCrossing) -> list:
    """One on-path AS answers the redeem requests addressed to it, each with
    a delivery or a refusal; a purchase that reached the ledger leaves one at
    every crossing, so silence is an error."""
    records = deployment.service(crossing.isd_as).poll_and_deliver()
    if not records:
        raise RuntimeError(f"AS {crossing.isd_as} found no redeem request")
    return records


def purchase_path(
    deployment: MarketDeployment,
    host: HostClient,
    crossings: list[AsCrossing],
    start: int,
    expiry: int,
    bandwidth_kbps: int,
    flex_start: int = 0,
) -> PurchaseOutcome:
    """Run the Fig. 2 workflow for a path and measure Fig. 4 latencies.

    ``flex_start`` lets the planner slide the whole window up to that many
    seconds later when a cheaper granule exists (buy the valley, not the
    peak).

    Raises RuntimeError when the ledger aborts the purchase, or once every
    on-path AS has answered if any refused its hop, naming each such AS and
    its code: the host holds that hop's assets again, and its
    ``collect_reservations`` returns the hops that were delivered.  Raises
    :class:`Misdelivery` when an AS delivered a record other than the one
    its hop's redeem request asked for, naming each such AS and the host's
    :data:`~repro.controlplane.hostclient.MISDELIVERY_CODES` entry, which
    names the first field that differs; the collect is spent by then, so the
    error carries the reservations it returned.
    """
    spec = PathSpec(crossings, start, expiry, bandwidth_kbps, flex_start=flex_start)
    quote = deployment.planner.best(spec)
    submitted = host.atomic_buy_and_redeem(deployment.marketplace, quote)
    if not submitted.effects.ok:
        raise RuntimeError(f"atomic buy-and-redeem aborted: {submitted.effects.error}")
    request_latency = submitted.latency
    price = sum(ret.get("price_mist", 0) for ret in submitted.effects.returns)

    # Response phase: every on-path AS observes the redeem event after a
    # polling delay and answers with a fast-path delivery or refusal; the
    # phase ends when the slowest answer lands.
    requests = {ret.get("request") for ret in submitted.effects.returns}
    response_latency = 0.0
    refusals = []
    answered = []  # (AS, request) per delivery to this purchase
    for crossing in crossings:
        for record in _poll(deployment, crossing):
            poll_delay = deployment.executor.committee.observation_delay()
            delivery_latency = poll_delay + record.submitted.latency
            response_latency = max(response_latency, delivery_latency)
            if record.request_id not in requests:
                continue
            if record.reason_code is not None:
                refusals.append(f"AS {crossing.isd_as} refused: {record.reason_code}")
            else:
                answered.append((crossing.isd_as, record.request_id))
    if refusals:
        raise RuntimeError("; ".join(refusals))

    reservations = host.collect_reservations()
    misdeliveries = [
        f"AS {isd_as} misdelivered: {host.misdelivered[request]}"
        for isd_as, request in answered
        if request in host.misdelivered
    ]
    if misdeliveries:
        error = Misdelivery("; ".join(misdeliveries))
        error.reservations = reservations
        raise error
    return PurchaseOutcome(
        reservations=reservations,
        latency=LatencyBreakdown(request=request_latency, response=response_latency),
        price_mist=price,
        gas=submitted.effects.gas,
        estimated_price_mist=quote.price_mist,
        quote=quote,
    )


def execute_transfer(
    deployment: MarketDeployment,
    host: HostClient,
    crossings: list[AsCrossing],
    bytes_total: int,
    deadline: int,
    *,
    release: int | None = None,
    max_rate_kbps: int | None = None,
    best_effort: bool = False,
):
    """Run one deadline transfer end-to-end: plan, buy+fuse+redeem
    atomically, then have every on-path AS deliver its reservations.

    Returns the :class:`~repro.transfers.TransferOutcome` with
    ``reservations`` filled in — one per hop per leg, already decrypted.
    Raises whatever :meth:`HostClient.transfer` raises (see its failure
    matrix); a raise means no reservation was created anywhere.
    """
    outcome = host.transfer(
        deployment.marketplace,
        crossings,
        bytes_total,
        deadline,
        release=release,
        max_rate_kbps=max_rate_kbps,
        best_effort=best_effort,
    )
    if outcome.submitted is None:  # empty best-effort plan, nothing redeemed
        return outcome
    for crossing in crossings:
        _poll(deployment, crossing)
    outcome.reservations = host.collect_reservations()
    return outcome


def open_path_auction(
    deployment: MarketDeployment,
    crossings: list[AsCrossing],
    start: int,
    expiry: int,
    bandwidth_kbps: int,
) -> str:
    """Open one combinatorial path auction across a list of AS crossings;
    returns its id.

    The first crossing's AS creates the shell (any leg seller may); then
    every on-path AS contributes its own two legs — ``(ingress, True)``
    and ``(egress, False)`` — each one admission-checked against that AS's
    issued calendar and reserve-priced by its own scarcity quote over
    :data:`DEFAULT_PRICE_MICROMIST`.  The legs are on chain and in
    ``deployment.indexer`` from then on; nobody keeps another copy.

    Raises:
        RuntimeError: the ledger refused the shell or a contribution.
        AdmissionRejected: some AS's calendar cannot cover its leg.
    """
    creator = deployment.service(crossings[0].isd_as)
    opened = creator.open_path_auction(deployment.marketplace, 2 * len(crossings))
    if not opened.effects.ok:
        raise RuntimeError(f"path auction creation failed: {opened.effects.error}")
    path_auction = opened.effects.returns[0]["path_auction"]
    sides = [
        (crossing.isd_as, side)
        for crossing in crossings
        for side in ((crossing.ingress, True), (crossing.egress, False))
    ]
    for index, (isd_as, (interface, is_ingress)) in enumerate(sides):
        contributed = deployment.service(isd_as).contribute_path_leg(
            deployment.marketplace,
            path_auction,
            index,
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            DEFAULT_PRICE_MICROMIST,
        )
        if not contributed.effects.ok:
            raise RuntimeError(
                f"leg {index} contribution failed: {contributed.effects.error}"
            )
    return path_auction


def settle_path_auction(
    deployment: MarketDeployment, path_auction: str
) -> PathSettlementRecord:
    """Settle a path auction at every leg's live supply, all-or-nothing.

    The legs are read off ``deployment.indexer``; each leg's supply is its
    offered bandwidth clamped by live active-calendar headroom at the AS
    that issued it (:meth:`~repro.admission.AdmissionController.settle_supply`).
    The first leg's AS then submits the single settle transaction that
    clears the combinatorial book, awards pieces of every leg to the path
    winners, refunds everyone else, pays each leg seller, and relists
    remainders.

    Raises:
        ValueError: the path auction is not open or not fully contributed.
        RuntimeError: the ledger refused the settle transaction.
    """
    legs = deployment.indexer.auction(path_auction).legs
    services = [deployment.service(IsdAs(leg["isd"], leg["asn"])) for leg in legs]
    supplies = [
        service.admission.settle_supply(
            leg["interface"], leg["is_ingress"], leg["start"], leg["expiry"],
            leg["bandwidth_kbps"],
        )
        for service, leg in zip(services, legs)
    ]
    return services[0].settle_path_auction(
        deployment.marketplace, path_auction, supplies
    )
