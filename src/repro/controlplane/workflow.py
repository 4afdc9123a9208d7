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

from repro.admission import ACTIVE
from repro.clock import Clock, SimClock
from repro.contracts.asset import AssetContract
from repro.contracts.coin import CoinContract
from repro.contracts.market import MarketContract
from repro.controlplane.asclient import AsService, PathSettlementRecord
from repro.controlplane.hostclient import HostClient
from repro.controlplane.pki import CpPki
from repro.pathadm import PathAdmission, PathHop
from repro.marketdata import MarketIndexer, PathSpec, PurchasePlanner
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.hummingbird.reservation import FlyoverReservation
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.committee import Committee
from repro.ledger.executor import LedgerExecutor
from repro.ledger.transactions import Command, Transaction
from repro.scion.paths import AsCrossing
from repro.scion.topology import Topology

DEFAULT_PRICE_MICROMIST = 50  # posted price per kbps-second
DEFAULT_ASSET_BANDWIDTH_KBPS = 10_000_000  # 10 Gbps per interface direction
# How long after a redeem lands an AS's checkpoint poll observes it (seconds).
OBSERVATION_DELAY = (0.05, 0.30)


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


@dataclass
class MarketDeployment:
    """A fully wired control plane over a topology."""

    topology: Topology
    ledger: Ledger
    executor: LedgerExecutor
    marketplace: str
    services: dict = field(default_factory=dict)  # IsdAs -> AsService
    clock: Clock | None = None
    rng: random.Random | None = None
    indexer: MarketIndexer | None = None

    def __post_init__(self) -> None:
        if self.indexer is None:
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

    def path_admission(self, crossings: list[AsCrossing]) -> PathAdmission:
        """Atomic path-wide admission over the on-path ASes' controllers.

        Each hop wraps one AS's live
        :class:`~repro.admission.AdmissionController` (whatever policy,
        pricer, calendar sharding, and allocation mode that AS runs), so a
        :meth:`~repro.pathadm.PathAdmission.screen` here checks and
        provisionally holds the real per-AS calendars and a rollback
        restores them byte-identically.
        """
        return PathAdmission(
            [
                PathHop(
                    name=str(crossing.isd_as),
                    controller=self.service(crossing.isd_as).admission,
                    ingress_interface=crossing.ingress,
                    egress_interface=crossing.egress,
                )
                for crossing in crossings
            ]
        )


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
    shard_seconds: float | None = None,
    auction_interfaces=None,
    reclamation: dict | None = None,
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
    is the shard width of its calendars (None = one unbounded shard);
    ``auction_interfaces`` (``True`` or a set of ``(interface,
    is_ingress)`` pairs) puts those interface directions into sealed-bid
    auction mode — the seed listings are still posted, but
    :meth:`~repro.controlplane.asclient.AsService.offer_capacity` on such
    an interface opens an auction instead of a listing.

    ``reclamation`` arms every AS's no-show reclamation loop
    (:meth:`~repro.controlplane.asclient.AsService.enable_reclamation`):
    the dict's ``usage_source_factory`` key (``isd_as -> snapshot
    callable``) binds each service to its data-plane policer — absent, the
    loop runs on an empty usage feed — and the remaining keys pass through
    (``grace_seconds``, ``no_show_threshold``, ...).  Relisting defaults
    to this deployment's marketplace at the seed base price.
    """
    from repro.admission import AdmissionController
    rng = random.Random(seed)
    clock = clock if clock is not None else SimClock()
    pki = CpPki(seed=seed)
    ledger = Ledger()
    ledger.register_contract(CoinContract())
    ledger.register_contract(AssetContract(pki))
    ledger.register_contract(MarketContract())
    executor = LedgerExecutor(ledger, Committee(seed=seed), clock)

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
            rng=random.Random(seed ^ autonomous_system.isd_as.asn),
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
        if reclamation is not None:
            options = dict(reclamation)
            factory = options.pop("usage_source_factory", None)
            source = (
                factory(autonomous_system.isd_as)
                if factory is not None
                else (lambda: {})
            )
            options.setdefault("marketplace", marketplace)
            options.setdefault("relist_base_micromist", price_micromist_per_unit)
            service.enable_reclamation(source, **options)
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
    """One on-path AS answers the redeem requests addressed to it; a
    purchase that reached the ledger leaves one at every crossing, so
    silence is an error."""
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
    max_price_mist: int | None = None,
) -> PurchaseOutcome:
    """Run the Fig. 2 workflow for a path and measure Fig. 4 latencies.

    ``flex_start`` lets the planner slide the whole window up to that many
    seconds later when a cheaper granule exists (buy the valley, not the
    peak); ``max_price_mist`` caps the price both at quote time and again
    at submission (repriced against the live index).
    """
    spec = PathSpec.from_crossings(
        crossings,
        start,
        expiry,
        bandwidth_kbps,
        flex_start=flex_start,
        budget_mist=max_price_mist,
    )
    quote = deployment.planner.best(spec)
    # Pre-flight the quoted window through atomic path-wide admission:
    # every hop's live active calendar is checked and provisionally held,
    # then released again — a mid-path infeasibility (an AS's delivered
    # load already saturates an interface) aborts here, before any money
    # moves, instead of surfacing as a failed delivery after purchase.
    admission = deployment.path_admission(crossings)
    preflight = admission.screen(
        bandwidth_kbps,
        quote.start,
        quote.expiry,
        tag=host.account.address,
        layer=ACTIVE,
    )
    if not preflight.admitted:
        raise RuntimeError(
            f"path admission pre-flight rejected: {preflight.reason}"
        )
    admission.rollback(preflight)
    submitted = host.atomic_buy_and_redeem(
        deployment.marketplace, quote, max_price_mist=max_price_mist
    )
    if not submitted.effects.ok:
        raise RuntimeError(f"atomic buy-and-redeem aborted: {submitted.effects.error}")
    request_latency = submitted.latency
    price = sum(ret.get("price_mist", 0) for ret in submitted.effects.returns)

    # Response phase: every on-path AS observes the redeem event after a
    # polling delay and answers with a fast-path delivery; the phase ends
    # when the slowest delivery lands.
    rng = deployment.rng if deployment.rng is not None else random.Random(1)
    response_latency = 0.0
    for crossing in crossings:
        for record in _poll(deployment, crossing):
            poll_delay = rng.uniform(*OBSERVATION_DELAY)
            delivery_latency = poll_delay + record.submitted.latency
            response_latency = max(response_latency, delivery_latency)

    reservations = host.collect_reservations()
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
    budget_mist: int | None = None,
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
        budget_mist=budget_mist,
        max_rate_kbps=max_rate_kbps,
        best_effort=best_effort,
    )
    if outcome.submitted is None:  # empty best-effort plan, nothing redeemed
        return outcome
    for crossing in crossings:
        _poll(deployment, crossing)
    outcome.reservations = host.collect_reservations()
    return outcome


@dataclass
class PathAuctionHandle:
    """One open combinatorial path auction and who contributed its legs.

    ``legs`` holds ``(service, leg_index, interface, is_ingress)`` in path
    order — the bookkeeping :func:`settle_path_auction` needs to collect
    every leg's live supply from its own AS.
    """

    path_auction: str
    marketplace: str
    crossings: list[AsCrossing]
    legs: list[tuple[AsService, int, int, bool]]


def open_path_auction(
    deployment: MarketDeployment,
    crossings: list[AsCrossing],
    start: int,
    expiry: int,
    bandwidth_kbps: int,
    base_price_micromist: int = DEFAULT_PRICE_MICROMIST,
    granularity: int = 60,
    min_bandwidth_kbps: int = 100,
) -> PathAuctionHandle:
    """Open one combinatorial path auction across a list of AS crossings.

    The first crossing's AS creates the shell (any leg seller may); then
    every on-path AS contributes its own two legs — ``(ingress, True)``
    and ``(egress, False)`` — each one admission-checked against that AS's
    issued calendar and reserve-priced by its own scarcity quote.

    Raises:
        RuntimeError: the ledger refused the shell or a contribution.
        AdmissionRejected: some AS's calendar cannot cover its leg.
    """
    creator = deployment.service(crossings[0].isd_as)
    opened = creator.open_path_auction(deployment.marketplace, 2 * len(crossings))
    if not opened.effects.ok:
        raise RuntimeError(f"path auction creation failed: {opened.effects.error}")
    path_auction = opened.effects.returns[0]["path_auction"]
    legs: list[tuple[AsService, int, int, bool]] = []
    index = 0
    for crossing in crossings:
        service = deployment.service(crossing.isd_as)
        for interface, is_ingress in (
            (crossing.ingress, True),
            (crossing.egress, False),
        ):
            contributed = service.contribute_path_leg(
                deployment.marketplace,
                path_auction,
                index,
                interface,
                is_ingress,
                bandwidth_kbps,
                start,
                expiry,
                base_price_micromist,
                granularity,
                min_bandwidth_kbps,
            )
            if not contributed.effects.ok:
                raise RuntimeError(
                    f"leg {index} contribution failed: {contributed.effects.error}"
                )
            legs.append((service, index, interface, is_ingress))
            index += 1
    return PathAuctionHandle(
        path_auction=path_auction,
        marketplace=deployment.marketplace,
        crossings=list(crossings),
        legs=legs,
    )


def settle_path_auction(
    deployment: MarketDeployment, handle: PathAuctionHandle
) -> PathSettlementRecord:
    """Settle a path auction at every leg's live supply, all-or-nothing.

    Each on-path AS reports its own legs' sellable bandwidth (offered
    bandwidth clamped by live active-calendar headroom); the first leg's
    AS then submits the single settle transaction that clears the
    combinatorial book, awards pieces of every leg to the path winners,
    refunds everyone else, pays each leg seller, and relists remainders.
    """
    supplies = [
        service.path_leg_supply(handle.path_auction, leg_index)
        for service, leg_index, _, _ in handle.legs
    ]
    return handle.legs[0][0].settle_path_auction(
        handle.marketplace, handle.path_auction, supplies
    )
