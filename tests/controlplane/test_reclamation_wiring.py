"""Reclamation through the control plane: track, reclaim, relist, pay once.

The escrow-conservation property anchors this module: when reclaimed
bandwidth is relisted and sold, the proceeds go to the AS (the relisted
listing's seller) and never to the original holder — whose coins and
asset are untouched by the second sale.
"""

import pytest

from tests.conftest import T0

from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import deploy_market, purchase_path
from repro.invariants import check
from repro.ledger.transactions import Command, Transaction
from repro.reclaim import AdaptiveOverbooking
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing

BANDWIDTH = 50_000


def _deploy(admission_policy=None, reclamation_overrides=None):
    clock = SimClock(float(T0))
    topology = linear_topology(3)
    options = dict(interval=0.25, grace_seconds=5.0)
    options.update(reclamation_overrides or {})
    deployment = deploy_market(
        topology,
        clock=clock,
        admission_policy=admission_policy,
        reclamation=options,
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
        admission_policy=AdaptiveOverbooking(initial_factor=1.5, max_factor=3.0)
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
        tracked = service.reclamation.tracked(0)
        assert tracked is not None and tracked.reclaimed_to_kbps == 1
        for interface, is_ingress, commitment_id in tracked.handles:
            calendar = service.admission.calendar(interface, is_ingress, ACTIVE)
            assert calendar.get(commitment_id).bandwidth_kbps == 1


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
