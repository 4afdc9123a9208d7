"""Reclamation through the control plane: track, reclaim, relist, pay once.

The escrow-conservation property anchors this module: when reclaimed
bandwidth is relisted and sold, the proceeds go to the AS (the relisted
listing's seller) and never to the original holder — whose coins and
asset are untouched by the second sale.  Two nets guard the loop's
timing and its resale: a factor learned from no-shows lets the *issued*
calendar take the relist, and a reservation delivered late in its window
is judged from its delivery.
"""

import pytest

from tests.conftest import EagerOverbooking, T0, reclaiming_at

from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import deploy_market, purchase_path
from repro.invariants import check
from repro.ledger.transactions import Command, Transaction
from repro.reclaim import AdaptiveOverbooking
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing

BANDWIDTH = 50_000


def _deploy(admission_policy=None, policer_of=lambda isd_as: None, clock=None):
    clock = clock if clock is not None else SimClock(float(T0))
    topology = linear_topology(3)
    with reclaiming_at(GRACE_SECONDS=5.0):
        deployment = deploy_market(
            topology,
            clock=clock,
            admission_policy=admission_policy,
            policer_of=policer_of,
        )
    store = run_beaconing(topology, timestamp=T0)
    path = PathLookup(store).find_paths(
        topology.ases[2].isd_as, topology.ases[0].isd_as
    )[0]
    return clock, deployment, path


def _no_show_purchase(clock, deployment, path):
    """Buy a path reservation, never send a byte, let the grace expire."""
    host = deployment.new_host(funding_sui=100)
    outcome = purchase_path(
        deployment,
        host,
        as_crossings(path),
        start=T0 + 60,
        expiry=T0 + 660,
        bandwidth_kbps=BANDWIDTH,
    )
    assert outcome.reservations
    clock.advance(T0 + 70 - clock.now())  # past start + grace, inside window
    return host, outcome


@pytest.fixture(scope="module")
def reclaimed_world():
    clock, deployment, path = _deploy(
        admission_policy=EagerOverbooking(max_factor=3.0)
    )
    host, outcome = _no_show_purchase(clock, deployment, path)
    events = {
        crossing.isd_as: deployment.service(crossing.isd_as).reclaim_no_shows()
        for crossing in as_crossings(path)
    }
    deployment.indexer.sync()
    yield {
        "clock": clock,
        "deployment": deployment,
        "path": path,
        "host": host,
        "outcome": outcome,
        "events": events,
    }
    check(deployment, clock.now())


def test_every_on_path_as_reclaims_the_no_show(reclaimed_world):
    events = reclaimed_world["events"]
    for isd_as, completed in events.items():
        assert len(completed) == 1, f"{isd_as} did not reclaim"
        event = completed[0]
        assert event.old_kbps == BANDWIDTH
        assert event.new_kbps == 1  # min_retained floor: observed zero
        assert event.observed_kbps == 0.0


def test_reclaimed_listings_carry_provenance(reclaimed_world):
    deployment = reclaimed_world["deployment"]
    indexer = deployment.indexer
    assert indexer.reclaimed_seen == len(reclaimed_world["events"])
    for crossing in as_crossings(reclaimed_world["path"]):
        service = deployment.service(crossing.isd_as)
        event, listing_id, status = service.relisted[-1]
        assert status == "relisted", status
        provenance = indexer.provenance(listing_id)
        assert provenance is not None
        assert provenance["reclaimed_kbps"] == event.freed_kbps == BANDWIDTH - 1
        assert provenance["original_holder"] == event.tag
        # The relisted listing's seller is the AS, not the original holder.
        listing = deployment.ledger.get_object(listing_id)
        assert listing.payload["seller"] == service.account.address


def test_relisted_sale_never_double_pays_the_original_holder(reclaimed_world):
    deployment = reclaimed_world["deployment"]
    ledger = deployment.ledger
    crossing = as_crossings(reclaimed_world["path"])[0]
    service = deployment.service(crossing.isd_as)
    _, listing_id, _ = service.relisted[-1]
    listing = ledger.get_object(listing_id)
    asset = ledger.get_object(listing.payload["asset"])

    holder = reclaimed_world["host"].account.address
    holder_before = coin_balance(ledger, holder)
    seller_before = coin_balance(ledger, service.account.address)

    buyer = deployment.new_host(funding_sui=100)
    submitted = buyer.executor.submit(
        Transaction(
            sender=buyer.account.address,
            commands=[
                Command(
                    "market",
                    "buy",
                    {
                        "marketplace": deployment.marketplace,
                        "listing": listing_id,
                        "start": asset.payload["start"],
                        "expiry": asset.payload["expiry"],
                        "bandwidth_kbps": asset.payload["bandwidth_kbps"],
                        "payment": buyer.payment_coin,
                    },
                )
            ],
        )
    )
    assert submitted.effects.ok, submitted.effects.error
    price = submitted.effects.returns[0]["price_mist"]
    assert price > 0

    # The AS is paid exactly once; the original holder gets nothing and
    # loses nothing — escrow is conserved across the resale.
    assert coin_balance(ledger, service.account.address) == seller_before + price
    assert coin_balance(ledger, holder) == holder_before


def test_original_holder_keeps_its_retained_commitment_after_the_resale(
    reclaimed_world,
):
    """The resale carves the *relisted* asset; the holder's (shrunk)
    active-calendar commitments survive it untouched."""
    from repro.admission import ACTIVE

    deployment = reclaimed_world["deployment"]
    for crossing in as_crossings(reclaimed_world["path"]):
        service = deployment.service(crossing.isd_as)
        (tracked,) = [t for t in service.reclamation.tracked() if t.res_id == 0]
        assert tracked.reclaimed_to_kbps == 1
        for interface, is_ingress, commitment_id in tracked.handles:
            calendar = service.admission.calendar(interface, is_ingress, ACTIVE)
            assert calendar._commitments[commitment_id].bandwidth_kbps == 1


def test_strict_fcfs_refuses_the_relist_instead_of_forcing_it():
    """Without overbooking the issued calendar is full: record, don't list."""
    clock, deployment, path = _deploy(admission_policy=None)
    _no_show_purchase(clock, deployment, path)
    crossing = as_crossings(path)[0]
    service = deployment.service(crossing.isd_as)
    events = service.reclaim_no_shows()
    assert len(events) == 1  # the calendars still shrink...
    event, listing_id, reason = service.relisted[-1]
    assert listing_id is None  # ...but nothing reaches the market
    assert reason != "relisted"
    deployment.indexer.sync()
    assert deployment.indexer.reclaimed_seen == 0
    check(deployment, clock.now())


def test_a_learned_factor_lets_the_issued_calendar_take_the_relist():
    """The seed listing fills every issued calendar, and adaptive
    overbooking starts at 1.0: only the factor the no-show taught the
    interface direction — on both layers — makes room to sell it again."""
    clock, deployment, path = _deploy(
        admission_policy=AdaptiveOverbooking(max_factor=3.0)
    )
    _no_show_purchase(clock, deployment, path)
    for crossing in as_crossings(path):
        service = deployment.service(crossing.isd_as)
        (event,) = service.reclaim_no_shows()
        _, listing_id, reason = service.relisted[-1]
        assert reason == "relisted" and listing_id is not None, reason
        assert event.freed_kbps == BANDWIDTH - 1
    deployment.indexer.sync()
    assert deployment.indexer.reclaimed_seen == len(as_crossings(path))
    check(deployment, clock.now())


class _FullRate:
    """Each AS's policer as the loop reads it: every reservation that AS
    delivered has sent at its booked rate since ``sending_since``."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.sending_since: float | None = None
        self.delivered: list = []  # (ingress, res_id, res_start) this AS delivered
        self.limits: list = []

    def usage_bytes(self, ingress: int, res_id: int, res_start: int) -> int:
        if (ingress, res_id, res_start) not in self.delivered:
            return 0
        return int(BANDWIDTH * 125 * (self.clock.now() - self.sending_since))

    def set_limit(self, ingress: int, res_id: int, res_start: int, kbps: int) -> None:
        self.limits.append((ingress, res_id, res_start, kbps))

    def retain(self, live: set) -> None:
        self.delivered = [reservation for reservation in self.delivered if reservation in live]

    def reservations(self) -> set:
        return set(self.delivered)


def test_a_late_delivery_is_judged_from_its_delivery_not_its_window():
    """Delivered 30 s into its window and sent at full rate since, a
    reservation is not judged inside its 5 s grace, and past it the loop
    sees a full-rate sender: nothing is reclaimed, nothing capped."""
    clock = SimClock(float(T0))
    policers: dict = {}

    def policer_of(isd_as):
        return policers.setdefault(isd_as, _FullRate(clock))

    _, deployment, path = _deploy(policer_of=policer_of, clock=clock)
    clock.set(float(T0 + 90))  # the window opened at T0 + 60
    outcome = purchase_path(
        deployment,
        deployment.new_host(funding_sui=100),
        as_crossings(path),
        start=T0 + 60,
        expiry=T0 + 660,
        bandwidth_kbps=BANDWIDTH,
    )
    delivered = clock.now()  # the deliveries took the purchase's last seconds
    for reservation in outcome.reservations:
        policer = policers[reservation.isd_as]
        policer.sending_since = delivered
        policer.delivered.append(
            (reservation.resinfo.ingress, reservation.resinfo.res_id, reservation.resinfo.start)
        )
    for seconds in (2.5, 20.0):  # inside the grace, then past it
        clock.set(delivered + seconds)
        for crossing in as_crossings(path):
            assert deployment.service(crossing.isd_as).reclaim_no_shows() == []
    assert all(not policer.limits for policer in policers.values())
    check(deployment, clock.now())


def test_a_reclaimed_cap_does_not_police_the_next_holder_of_its_res_id():
    """A no-show is reclaimed to 1 kbps at every AS; the next buyer of the
    path gets the same ResIDs for the following, non-overlapping window and
    sends within what it paid for: every router forwards it with priority."""
    from repro.netsim.scenarios import START, _market, linear_path

    topology, path = linear_path(3)
    with reclaiming_at(GRACE_SECONDS=1.0):
        deployment, simulation = _market(topology, path, reclaims=True)
    crossings = as_crossings(path)

    def buy(start: int):
        return purchase_path(
            deployment,
            deployment.new_host(funding_sui=100),
            crossings,
            start=start,
            expiry=start + 60,
            bandwidth_kbps=2_500,
        ).reservations

    no_show = buy(START)
    simulation.loop.run_until(START + 5)
    for crossing in crossings:
        (event,) = deployment.service(crossing.isd_as).reclaim_no_shows()
        assert event.new_kbps == 1
    second = buy(START + 60)
    assert [r.resinfo.res_id for r in second] == [r.resinfo.res_id for r in no_show]

    simulation.loop.run_until(START + 60)
    flow = simulation.send(1, 2_000_000.0, second)
    simulation.run(1.0)
    simulation.loop.run_until(simulation.now() + 1.0)  # what is in flight lands
    assert flow.received_packets == flow.sent_packets > 0
    for node in simulation.nodes.values():
        assert node.router.stats.demoted_overuse == 0
        assert node.router.stats.flyover_forwarded == flow.sent_packets
    check(deployment, simulation.now())
