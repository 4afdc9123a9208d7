"""End-to-end transfers on a live deployment: fuse-before-redeem,
rollback on vanished supply, and mixed-granularity failures.

The fuse guarantee is stated as an A/B: a transfer stitched across two
600-second listings (buy + buy + fuse + one redeem per hop) must leave
every on-path AS's ACTIVE calendar **byte-identical** to the same
transfer bought from one 1200-second listing — on day-wide shards and on
600-second shards, where the stitch sits on a shard edge, alike.
"""

from __future__ import annotations

import pytest

from tests.conftest import T0
from tests.fingerprint import calendar_fingerprint
from tests.marketdata.conftest import RawMarket

from repro.admission import ACTIVE, DEFAULT_SHARD_SECONDS
from repro.clock import SimClock
from repro.controlplane import HostClient, asclient, deploy_market, execute_transfer
from repro.invariants import check
from repro.marketdata import IncompatibleGranularity
from repro.netsim import linear_path
from repro.scion import as_crossings
from repro.transfers import DeadlineTransfer, TransferAborted, TransferPlanner

RATE_KBPS = 5_000
WINDOW = 1200  # two 600s listings in the stitched arm, one listing in the other


def _deploy(
    asset_duration: int,
    shard_seconds: float = DEFAULT_SHARD_SECONDS,
    extra_window=None,
    interface_capacity_kbps=None,
):
    topology, path = linear_path(2)
    deployment = deploy_market(
        topology,
        clock=SimClock(float(T0)),
        asset_start=T0,
        asset_duration=asset_duration,
        price_micromist_per_unit=50,
        shard_seconds=shard_seconds,
        interface_capacity_kbps=interface_capacity_kbps,
    )
    if extra_window is not None:
        start, expiry = extra_window
        for autonomous_system in topology.ases:
            service = deployment.service(autonomous_system.isd_as)
            for interface in [0] + sorted(autonomous_system.interfaces):
                for is_ingress in (True, False):
                    listed = service.issue_and_list(
                        deployment.marketplace,
                        interface,
                        is_ingress,
                        10_000_000,
                        start,
                        expiry,
                        50,
                    )
                    assert listed.effects.ok
    return deployment, as_crossings(path)


def _active_fingerprints(deployment, crossings):
    prints = {}
    for crossing in crossings:
        admission = deployment.service(crossing.isd_as).admission
        for interface, is_ingress in (
            (crossing.ingress, True),
            (crossing.egress, False),
        ):
            calendar = admission.calendar(interface, is_ingress, ACTIVE)
            prints[(str(crossing.isd_as), interface, is_ingress)] = (
                calendar_fingerprint(calendar)
            )
    return prints


def _run_transfer(deployment, crossings):
    host = deployment.new_host(name="mover")
    return execute_transfer(
        deployment,
        host,
        crossings,
        bytes_total=RATE_KBPS * WINDOW * 125,
        deadline=T0 + WINDOW,
        release=T0,
        max_rate_kbps=RATE_KBPS,
    )


@pytest.mark.parametrize(
    "shard_seconds",
    [pytest.param(DEFAULT_SHARD_SECONDS, id="day"), pytest.param(600.0, id="narrow")],
)
def test_fused_stitch_matches_single_rectangle(shard_seconds):
    stitched, crossings_a = _deploy(
        600, shard_seconds, extra_window=(T0 + 600, T0 + WINDOW)
    )
    rectangle, crossings_b = _deploy(WINDOW, shard_seconds)
    outcome_a = _run_transfer(stitched, crossings_a)
    outcome_b = _run_transfer(rectangle, crossings_b)

    # The stitched arm really did stitch: two pieces per direction,
    # fused down to ONE redeem per hop; the rectangle arm bought one.
    for leg in outcome_a.plan.legs:
        for hop in leg.hops:
            assert len(hop.ingress_pieces) == 2
            assert len(hop.egress_pieces) == 2
    for leg in outcome_b.plan.legs:
        for hop in leg.hops:
            assert len(hop.ingress_pieces) == 1
            assert len(hop.egress_pieces) == 1
    assert outcome_a.plan.redeem_count == outcome_b.plan.redeem_count
    assert outcome_a.plan.bytes_scheduled == outcome_b.plan.bytes_scheduled

    # Same reservations delivered...
    assert [r.resinfo for r in outcome_a.reservations] == [
        r.resinfo for r in outcome_b.reservations
    ]
    # ...and byte-identical ACTIVE calendars at every crossed
    # interface (the ISSUED layers legitimately differ — the stitched
    # deployment listed twice as many assets).
    prints_a = _active_fingerprints(stitched, crossings_a)
    prints_b = _active_fingerprints(rectangle, crossings_b)
    assert prints_a == prints_b
    assert any(prints_a.values()), "transfer left no active-calendar trace"
    check(stitched, T0)
    check(rectangle, T0)


def test_fuse_then_resplit_roundtrip():
    """Ledger-level: a fused commitment re-splits cleanly at the seam."""
    market = RawMarket()
    listing = market.issue_and_list(
        interface=1, is_ingress=True, bandwidth_kbps=10_000,
        start=T0, expiry=T0 + 1200,
    )
    # Descending-start buys: the head remainder keeps the listing id.
    late = market.buy(listing, T0 + 600, T0 + 1200, 2_000)
    assert late.ok, late.error
    early = market.buy(listing, T0, T0 + 600, 2_000)
    assert early.ok, early.error
    fused = market.run(
        market.buyer, "asset", "fuse_time",
        first=early.returns[0]["asset"], second=late.returns[0]["asset"],
    ).returns[0]["asset"]
    fused_obj = market.ledger.get_object(fused)
    assert fused_obj.payload["start"] == T0
    assert fused_obj.payload["expiry"] == T0 + 1200

    split = market.run(
        market.buyer, "asset", "split_time", asset=fused, split_at=T0 + 600
    ).returns[0]
    first = market.ledger.get_object(split["first"])
    second = market.ledger.get_object(split["second"])
    assert (first.payload["start"], first.payload["expiry"]) == (T0, T0 + 600)
    assert (second.payload["start"], second.payload["expiry"]) == (
        T0 + 600,
        T0 + 1200,
    )
    assert first.payload["bandwidth_kbps"] == 2_000
    assert second.payload["bandwidth_kbps"] == 2_000


def test_vanished_listing_aborts_cleanly_both_ways(monkeypatch):
    """A rival buys out the supply between planning and execution.

    With preflight the client aborts before submitting anything; without
    it (patched out) the ledger rejects the transaction and rolls it back — either way
    no asset, reservation, coin, or active-calendar byte changes hands.
    """
    deployment, crossings = _deploy(600)
    host = deployment.new_host(name="victim")
    planner = TransferPlanner(host.indexer(deployment.marketplace))
    plan = planner.plan(
        DeadlineTransfer(
            crossings=tuple(crossings),
            bytes_total=RATE_KBPS * 600 * 125,
            release=T0,
            deadline=T0 + 600,
            max_rate_kbps=RATE_KBPS,
        )
    )
    assert plan.meets_request

    # The rival drains every listing the plan relies on.
    rival = deployment.new_host(name="rival")
    execute_transfer(
        deployment,
        rival,
        crossings,
        bytes_total=10_000_000 * 600 * 125,
        deadline=T0 + 600,
        release=T0,
    )
    baseline = _active_fingerprints(deployment, crossings)
    coin_before = deployment.ledger.get_object(host.payment_coin).payload[
        "balance"
    ]

    with pytest.raises(TransferAborted) as preflighted:
        host.execute_transfer_plan(deployment.marketplace, plan)
    assert preflighted.value.submitted is None  # nothing ever submitted

    monkeypatch.setattr(HostClient, "_preflight_transfer", lambda *_: None)
    with pytest.raises(TransferAborted) as raced:
        host.execute_transfer_plan(deployment.marketplace, plan)
    assert raced.value.submitted is not None
    assert not raced.value.submitted.effects.ok

    # Ledger atomicity + delivery silence: nothing moved anywhere.
    assert host.owned_assets() == []
    assert host.collect_reservations() == []
    coin_after = deployment.ledger.get_object(host.payment_coin).payload[
        "balance"
    ]
    assert coin_after == coin_before
    for crossing in crossings:
        assert deployment.service(crossing.isd_as).poll_and_deliver() == []
    assert _active_fingerprints(deployment, crossings) == baseline
    check(deployment, T0)


def test_mixed_incongruent_granularity_surfaces_from_transfer(monkeypatch):
    """A seller listing on a shifted 90s lattice makes the whole book
    unplannable: ``transfer`` must raise ``IncompatibleGranularity``, not
    an opaque failure, and submit nothing."""
    deployment, crossings = _deploy(600, interface_capacity_kbps=20_000_000)
    monkeypatch.setattr(asclient, "DEFAULT_GRANULARITY", 90)  # the seam: a 90 s seller
    for crossing in crossings:
        service = deployment.service(crossing.isd_as)
        listed = service.issue_and_list(
            deployment.marketplace,
            crossing.ingress,
            True,
            10_000,
            T0 + 15,
            T0 + 15 + 540,
            50,
        )
        assert listed.effects.ok
    host = deployment.new_host(name="mover")
    with pytest.raises(IncompatibleGranularity):
        host.transfer(
            deployment.marketplace,
            crossings,
            bytes_total=1000 * 600 * 125,
            deadline=T0 + 600,
            release=T0,
        )
    assert host.owned_assets() == []
