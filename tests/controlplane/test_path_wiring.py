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
from repro.scion.addresses import IsdAs

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
        path_auction = open_path(world)
        legs = deployment.indexer.auction(path_auction).legs
        assert len(legs) == 2 * len(crossings)
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
        # Every AS sells its own legs, nobody else's, in path order.
        sides = [
            (deployment.service(crossing.isd_as).account.address, crossing.isd_as, side)
            for crossing in crossings
            for side in ((crossing.ingress, True), (crossing.egress, False))
        ]
        for leg, side in zip(legs, sides, strict=True):
            assert (
                leg["seller"],
                IsdAs(leg["isd"], leg["asn"]),
                (leg["interface"], leg["is_ingress"]),
            ) == side
            assert (leg["start"], leg["expiry"], leg["bandwidth_kbps"]) == (*WINDOW, LEG_KBPS)

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
        path_auction = open_path(world)
        winner = deployment.new_host(name="winner")
        rival = deployment.new_host(name="rival")
        acquired = winner.acquire_path(
            deployment.marketplace, crossings, *WINDOW, 2_000, 500_000
        )
        assert acquired.mode == "path_bid"
        rival.place_bid(deployment.marketplace, path_auction, LEG_KBPS, 40_000)
        world["clock"].set(float(WINDOW[0]))
        record = settle_path_auction(deployment, path_auction)
        assert len(record.clearing_prices_micromist) == 2 * len(crossings)

        settlement = winner.await_settle(deployment.marketplace, path_auction)
        assert settlement is not None and settlement.won
        # One piece per leg, in path order.
        assert len(settlement.assets) == 2 * len(crossings)
        lost = rival.await_settle(deployment.marketplace, path_auction)
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
        path_auction = open_path(world)
        # One AS's active calendar loses headroom before settlement: its
        # ingress leg can sell less than was offered, every other leg all of it.
        squeezed = deployment.service(crossings[1].isd_as)
        squeezed.admission.admit_reservation(
            crossings[1].ingress, True, 2 * ASSET_KBPS - 1_000, *WINDOW, tag="ops"
        )
        world["clock"].set(float(WINDOW[0]))
        record = settle_path_auction(deployment, path_auction)
        assert record.supplies_kbps == [LEG_KBPS, LEG_KBPS, 1_000] + [LEG_KBPS] * 3

    def test_a_loser_short_at_one_mid_path_leg_is_evicted_from_every_leg(
        self, world
    ):
        deployment, crossings = world["deployment"], world["crossings"]
        path_auction = open_path(world)
        # The middle AS's ingress keeps live room for one 2,000 kbps bid;
        # every other leg could take both.
        middle = crossings[1]
        deployment.service(middle.isd_as).admission.admit_reservation(
            middle.ingress, True, 2 * ASSET_KBPS - 2_000, *WINDOW, tag="ops"
        )
        high = deployment.new_host(name="high")
        low = deployment.new_host(name="low")
        escrows = {}
        for host, budget in ((high, 60_000), (low, 40_000)):
            placed = host.place_bid(deployment.marketplace, path_auction, 2_000, budget)
            assert placed.effects.ok, placed.effects.error
            escrows[host] = placed.effects.returns[0]["escrow_mist"]
        world["clock"].set(float(WINDOW[0]))
        record = settle_path_auction(deployment, path_auction)
        assert record.supplies_kbps == [LEG_KBPS, LEG_KBPS, 2_000] + [LEG_KBPS] * 3

        won = high.await_settle(deployment.marketplace, path_auction)
        assert won.won and len(won.assets) == 2 * len(crossings)
        lost = low.await_settle(deployment.marketplace, path_auction)
        assert not lost.won and lost.assets == ()
        assert (lost.paid_mist, lost.refund_mist) == (0, escrows[low])
        # The legs the loser had won alone were cleared without it: it is
        # reported at the middle AS's ingress, hop 1.
        payload = deployment.indexer.settlement(path_auction)
        (report,) = payload["losers"]
        assert report["bidder"] == low.account.address
        assert (report["leg"], report["reason"]) == (2, "supply exhausted")
        assert not [
            held
            for held in deployment.ledger.objects.values()
            if held.type_tag == "asset::BandwidthAsset"
            and held.owner == low.account.address
        ]

    def test_a_path_bid_escrows_no_more_than_its_budget(self, world):
        """The budget floors per leg: a unit price floored over the whole
        path and then ceil-priced leg by leg locked up to ``legs - 1`` MIST
        over it (908 MIST on six legs escrowed 912)."""
        deployment = world["deployment"]
        path_auction = open_path(world)
        host = deployment.new_host(name="frugal")
        for budget in range(900, 940):
            placed = host.place_bid(deployment.marketplace, path_auction, 2_000, budget)
            assert placed.effects.ok, placed.effects.error
            assert placed.effects.returns[0]["escrow_mist"] <= budget, budget

    def test_place_path_bid_refuses_budgets_below_a_leg_reserve(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        path_auction = open_path(world)
        host = deployment.new_host(name="cheap")
        with pytest.raises(ValueError, match="below the dearest leg reserve"):
            host.place_bid(deployment.marketplace, path_auction, 2_000, 10)


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


class TestRefusedHop:
    """A redemption one on-path AS cannot serve ends on chain: the AS refuses
    it, the host holds that hop's two assets again, and the purchase raises
    once every AS has answered.  (Before the ledger owned this, an off-chain
    pre-flight refused the path before any money moved; a purchase through
    any other route left the request holding the host's assets for good.)"""

    def test_a_saturated_mid_path_as_refuses_and_hands_the_pair_back(self, world):
        deployment, crossings = world["deployment"], world["crossings"]
        ledger = deployment.ledger
        # Saturate the middle AS's ingress active calendar: it cannot deliver.
        victim = crossings[1]
        service = deployment.service(victim.isd_as)
        decision = service.admission.admit_reservation(
            victim.ingress, True, 2 * ASSET_KBPS, T0, T0 + 3600, tag="saturated"
        )
        assert decision.admitted
        host = deployment.new_host(name="blocked")
        checkpoint = ledger.checkpoint
        with pytest.raises(RuntimeError, match=rf"^AS {victim.isd_as} refused: no_capacity$"):
            purchase_path(deployment, host, crossings, T0, T0 + 600, 2_000)

        # The other hops were delivered; the refusal is recorded, its key gone.
        delivered = host.collect_reservations()
        assert [r.isd_as for r in delivered] == [c.isd_as for c in crossings if c is not victim]
        (refusal,) = ledger.events_since(checkpoint, "RedemptionRefused")
        assert refusal.payload["redeemer"] == host.account.address
        assert host.refused == {refusal.payload["request"]: "no_capacity"}
        assert host._outstanding == {}
        assert not [o for o in ledger.objects.values() if o.type_tag == "asset::RedeemRequest"]

        # The host owns the refused hop's pair again: same rectangle, new ids.
        bought = {
            event.payload["asset"] for event in ledger.events_since(checkpoint, "Sold")
        }
        returned = {
            asset.payload["is_ingress"]: asset for asset in host.owned_assets()
        }
        assert not bought & {asset.object_id for asset in returned.values()}
        for is_ingress, interface in ((True, victim.ingress), (False, victim.egress)):
            payload = returned[is_ingress].payload
            assert (payload["isd"], payload["asn"]) == (victim.isd_as.isd, victim.isd_as.asn)
            assert (payload["interface"], payload["start"], payload["expiry"]) == (
                interface, T0, T0 + 600
            )
            assert payload["bandwidth_kbps"] == 2_000

        # Once the capacity is back, the returned pair redeems and is delivered.
        service.admission.release(
            victim.ingress, True, decision.commitment, layer=ACTIVE
        )
        assert host.redeem_pair(returned[True].object_id, returned[False].object_id).effects.ok
        (record,) = service.poll_and_deliver()
        assert record.reason_code is None
        (reservation,) = host.collect_reservations()
        assert reservation.isd_as == victim.isd_as
