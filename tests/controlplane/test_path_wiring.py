"""Combinatorial path auctions and atomic path admission, fully wired."""

import pytest

from tests.conftest import T0

from repro.admission import ACTIVE
from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import (
    deploy_market,
    open_path_auction,
    purchase_path,
    settle_path_auction,
)
from repro.invariants import check
from repro.marketdata import BudgetExceeded
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing

WINDOW = (T0 + 3600, T0 + 4200)
DURATION = WINDOW[1] - WINDOW[0]
ASSET_KBPS = 10_000
LEG_KBPS = 6_000


@pytest.fixture()
def world():
    clock = SimClock(float(T0))
    topology = linear_topology(3)
    deployment = deploy_market(
        topology,
        clock=clock,
        asset_start=T0,
        asset_duration=3600,
        asset_bandwidth_kbps=ASSET_KBPS,
        interface_capacity_kbps=2 * ASSET_KBPS,
    )
    store = run_beaconing(topology, timestamp=T0)
    path = PathLookup(store).find_paths(
        topology.ases[-1].isd_as, topology.ases[0].isd_as
    )[0]
    crossings = as_crossings(path)
    yield {"clock": clock, "deployment": deployment, "crossings": crossings}
    check(deployment, clock.now())


def open_path(world, bandwidth_kbps=LEG_KBPS):
    return open_path_auction(
        world["deployment"], world["crossings"], *WINDOW, bandwidth_kbps
    )


class TestPathAuctionWiring:
    def test_open_path_auction_claims_every_leg_calendar(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        handle = open_path(world)
        assert len(handle.legs) == 2 * len(crossings)
        for crossing in crossings:
            service = deployment.service(crossing.isd_as)
            for interface, is_ingress in (
                (crossing.ingress, True),
                (crossing.egress, False),
            ):
                # Seed asset (10 Gbps window 0) plus the leg claim.
                headroom = service.admission.calendar(
                    interface, is_ingress, "issued"
                ).headroom(*WINDOW)
                assert headroom == 2 * ASSET_KBPS - LEG_KBPS
        # Every AS recorded its own legs, nobody else's.
        for service, leg_index, interface, is_ingress in handle.legs:
            record = service.path_legs[(handle.path_auction, leg_index)]
            assert (record.interface, record.is_ingress) == (interface, is_ingress)

    def test_acquire_path_bids_into_a_covering_auction(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        open_path(world)
        host = deployment.new_host(name="path-host")
        outcome = host.acquire_path(
            deployment.marketplace, crossings, *WINDOW, 2_000, 100_000
        )
        assert outcome.mode == "path_bid"
        assert outcome.submitted.effects.ok, outcome.submitted.effects.error

    def test_full_path_auction_lifecycle_settles_and_redeems(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        handle = open_path(world)
        winner = deployment.new_host(name="winner")
        rival = deployment.new_host(name="rival")
        acquired = winner.acquire_path(
            deployment.marketplace, crossings, *WINDOW, 2_000, 500_000
        )
        assert acquired.mode == "path_bid"
        rival.place_path_bid(
            deployment.marketplace, handle.path_auction, LEG_KBPS, 40_000
        )
        world["clock"].set(float(WINDOW[0]))
        record = settle_path_auction(deployment, handle)
        assert len(record.clearing_prices_micromist) == 2 * len(crossings)

        settlement = winner.await_path_settle(
            deployment.marketplace, handle.path_auction
        )
        assert settlement is not None and settlement.won
        # One piece per leg, in path order.
        assert len(settlement.assets) == 2 * len(crossings)
        lost = rival.await_path_settle(deployment.marketplace, handle.path_auction)
        assert lost is not None and not lost.won and lost.paid_mist == 0

        # Escrow conservation straight from the event stream.
        placed = deployment.ledger.events_since(0, "PathBidPlaced")
        payload = deployment.ledger.events_since(0, "PathAuctionSettled")[0].payload
        escrow_total = sum(event.payload["escrow_mist"] for event in placed)
        paid = sum(w["paid_mist"] for w in payload["winners"])
        refunds = sum(w["refund_mist"] for w in payload["winners"]) + sum(
            l["refund_mist"] for l in payload["losers"]
        )
        assert paid + refunds == escrow_total

        # Atomic path-wide redemption: one transaction, every pair.
        pairs = list(zip(settlement.assets[0::2], settlement.assets[1::2]))
        redeemed = winner.redeem_path(pairs)
        assert redeemed.effects.ok, redeemed.effects.error
        for crossing in crossings:
            deployment.service(crossing.isd_as).poll_and_deliver()
        reservations = winner.collect_reservations()
        assert len(reservations) == len(crossings)

    def test_settle_clamps_supply_to_live_headroom(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        handle = open_path(world)
        # One AS's active calendar loses headroom before settlement: its
        # legs can sell less than was offered.
        squeezed = deployment.service(crossings[1].isd_as)
        squeezed.admission.admit_reservation(
            crossings[1].ingress, True, 2 * ASSET_KBPS - 1_000, *WINDOW, tag="ops"
        )
        supplies = [
            service.path_leg_supply(handle.path_auction, leg_index)
            for service, leg_index, _, _ in handle.legs
        ]
        assert min(supplies) == 1_000 and max(supplies) == LEG_KBPS

    def test_place_path_bid_refuses_budgets_below_a_leg_reserve(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        handle = open_path(world)
        host = deployment.new_host(name="cheap")
        with pytest.raises(ValueError, match="below the dearest leg reserve"):
            host.place_path_bid(
                deployment.marketplace, handle.path_auction, 2_000, 10
            )


class TestAcquirePathFallback:
    def test_falls_back_to_posted_listings_atomically(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        host = deployment.new_host(name="posted-host")
        before = coin_balance(deployment.ledger, host.account.address)
        outcome = host.acquire_path(
            deployment.marketplace, crossings, T0, T0 + 600, 2_000, 10_000
        )
        assert outcome.mode == "bought"
        assert outcome.submitted.effects.ok, outcome.submitted.effects.error
        assert 0 < outcome.price_mist <= 10_000
        assert (
            coin_balance(deployment.ledger, host.account.address)
            == before - outcome.price_mist
        )
        for crossing in crossings:
            deployment.service(crossing.isd_as).poll_and_deliver()
        assert len(host.collect_reservations()) == len(crossings)

    def test_fallback_honours_the_repricing_budget_guard(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        host = deployment.new_host(name="strapped")
        with pytest.raises(BudgetExceeded):
            host.acquire_path(
                deployment.marketplace, crossings, T0, T0 + 600, 2_000, 100
            )


class TestPurchasePathPreflight:
    def test_mid_path_saturation_aborts_before_any_money_moves(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        # Saturate the middle AS's ingress active calendar: deliveries
        # there are impossible, so the pre-flight must refuse the path.
        victim = crossings[1]
        service = deployment.service(victim.isd_as)
        decision = service.admission.admit_reservation(
            victim.ingress, True, 2 * ASSET_KBPS, T0, T0 + 3600, tag="saturated"
        )
        assert decision.admitted
        host = deployment.new_host(name="blocked")
        before = coin_balance(deployment.ledger, host.account.address)
        with pytest.raises(RuntimeError, match="pre-flight"):
            purchase_path(deployment, host, crossings, T0, T0 + 600, 2_000)
        assert coin_balance(deployment.ledger, host.account.address) == before
        # The provisional holds are gone: a feasible path still works.
        service.admission.release(
            victim.ingress, True, decision.commitment, layer=ACTIVE
        )
        outcome = purchase_path(deployment, host, crossings, T0, T0 + 600, 2_000)
        assert len(outcome.reservations) == len(crossings)
