"""Auctions wired through AsService, HostClient, and the deployment."""

import pytest

from tests.conftest import T0

from repro.admission import ACTIVE, AdmissionRejected, ScarcityPricer
from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import deploy_market
from repro.invariants import check
from repro.marketdata import ListingNotFound
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing

WINDOW = (T0 + 3600, T0 + 4200)
ASSET_KBPS = 10_000


@pytest.fixture()
def world():
    clock = SimClock(float(T0))
    topology = linear_topology(3)
    store = run_beaconing(topology, timestamp=T0)
    path = PathLookup(store).find_paths(
        topology.ases[-1].isd_as, topology.ases[0].isd_as
    )[0]
    crossing = as_crossings(path)[1]
    deployment = deploy_market(
        topology,
        clock=clock,
        asset_start=T0,
        asset_duration=3600,
        asset_bandwidth_kbps=ASSET_KBPS,
        interface_capacity_kbps=2 * ASSET_KBPS,
        pricer=ScarcityPricer(),
        auction_interfaces={(crossing.ingress, True)},
    )
    service = deployment.service(crossing.isd_as)
    yield {
        "clock": clock,
        "deployment": deployment,
        "crossing": crossing,
        "service": service,
    }
    check(deployment, clock.now())


def open_auction(world, bandwidth_kbps=6_000, reserve_base=50):
    service, crossing = world["service"], world["crossing"]
    submitted = service.open_auction(
        world["deployment"].marketplace,
        crossing.ingress,
        True,
        bandwidth_kbps,
        *WINDOW,
        reserve_base,
    )
    assert submitted.effects.ok, submitted.effects.error
    return next(iter(service.open_auctions))


class TestAsServiceAuctions:
    def test_open_auction_claims_the_issued_calendar(self, world):
        service, crossing = world["service"], world["crossing"]
        before = service.admission.utilization(crossing.ingress, True, *WINDOW)
        open_auction(world, bandwidth_kbps=6_000)
        after = service.admission.utilization(crossing.ingress, True, *WINDOW)
        assert after == pytest.approx(before + 6_000 / (2 * ASSET_KBPS))

    def test_open_auction_rejected_when_it_would_oversell(self, world):
        with pytest.raises(AdmissionRejected):
            open_auction(world, bandwidth_kbps=2 * ASSET_KBPS + 1_000)
        # The rejected attempt left no dangling book behind.
        crossing = world["crossing"]
        assert (
            world["service"].admission.auction_for(crossing.ingress, True, *WINDOW)
            is None
        )

    def test_offer_capacity_dispatches_on_interface_mode(self, world):
        deployment = world["deployment"]
        service, crossing = world["service"], world["crossing"]
        # The crossing's ingress is in auction mode: offering capacity auctions it.
        submitted = service.offer_capacity(
            deployment.marketplace, crossing.ingress, True, 1_000, *WINDOW, 50
        )
        assert submitted.effects.ok
        assert len(service.open_auctions) == 1
        # A posted-mode deployment lists instead (no auction record).
        posted = deploy_market(
            linear_topology(2),
            clock=SimClock(float(T0)),
            asset_start=T0,
            asset_duration=3600,
            asset_bandwidth_kbps=ASSET_KBPS,
            interface_capacity_kbps=2 * ASSET_KBPS,
        )
        posted_service = next(iter(posted.services.values()))
        listed = posted_service.offer_capacity(
            posted.marketplace, 1, True, 1_000, *WINDOW, 50
        )
        assert listed.effects.ok
        assert posted_service.open_auctions == {}

    def test_settle_waits_for_the_window_boundary(self, world):
        open_auction(world)
        assert world["service"].settle_due_auctions() == []
        world["clock"].set(float(WINDOW[0]))
        assert len(world["service"].settle_due_auctions()) == 1
        assert world["service"].open_auctions == {}

    def test_mirrored_book_clears_as_the_contract_settles(self, world):
        """The AS's off-chain copy of the book, cleared against the live
        supply, decides what the on-chain settle then decides."""
        deployment, service = world["deployment"], world["service"]
        auction_id = open_auction(world, bandwidth_kbps=6_000)
        for index, budget in enumerate((9_000, 6_000, 4_500)):
            host = deployment.new_host(name=f"bidder-{index}")
            assert host.place_bid(
                deployment.marketplace, auction_id, 2_500, budget
            ).effects.ok
        service.poll_bids()
        record = service.open_auctions[auction_id]
        book = service.admission.auction_for(
            record.interface, record.is_ingress, record.start, record.expiry
        )
        preview = book.clear(
            service.admission.settle_supply(
                record.interface, record.is_ingress, record.start, record.expiry,
                record.bandwidth_kbps,
            )
        )
        world["clock"].set(float(WINDOW[0]))
        settled = service.settle_due_auctions()[0]
        assert settled.clearing_price_micromist == preview.clearing_price_micromist
        assert [w["bidder"] for w in settled.winners] == [
            bid.bidder for bid in preview.winners
        ]
        assert settled.awarded_kbps == preview.awarded_kbps

    def test_headroom_loss_before_settle_shrinks_the_supply(self, world):
        """A direct grant between open and settle clamps what is sold."""
        deployment = world["deployment"]
        service, crossing = world["service"], world["crossing"]
        auction_id = open_auction(world, bandwidth_kbps=6_000)
        winner = deployment.new_host(name="early")
        loser = deployment.new_host(name="late")
        assert winner.place_bid(
            deployment.marketplace, auction_id, 2_500, 9_000
        ).effects.ok
        assert loser.place_bid(
            deployment.marketplace, auction_id, 2_500, 6_000
        ).effects.ok
        # Live capacity vanishes: a 16 Mbps reservation is granted directly
        # (outside the market), leaving 4 Mbps of active headroom.
        decision = service.admission.admit_reservation(
            crossing.ingress, True, 16_000, *WINDOW, tag="direct-grant"
        )
        assert decision.admitted
        world["clock"].set(float(WINDOW[0]))
        record = world["service"].settle_due_auctions()[0]
        assert record.supply_kbps == 4_000
        assert [w["bidder"] for w in record.winners] == [winner.account.address]
        outcome = loser.await_settle(deployment.marketplace, auction_id)
        assert not outcome.won and outcome.reasons == ("supply exhausted",)
        # The loser got every escrowed MIST back.
        assert coin_balance(deployment.ledger, loser.account.address) == (
            coin_balance(deployment.ledger, winner.account.address)
            + record.winners[0]["paid_mist"]
        )


class TestHostClientAuctions:
    def test_find_auction_and_await_settle_lifecycle(self, world):
        deployment = world["deployment"]
        crossing = world["crossing"]
        auction_id = open_auction(world, bandwidth_kbps=6_000)
        host = deployment.new_host(name="bidder")
        index = host.indexer(deployment.marketplace)
        isd_as = crossing.isd_as
        ingress = (isd_as.isd, isd_as.asn, crossing.ingress, True)
        found = index.find_auction([ingress], WINDOW[0], WINDOW[1], 2_500)
        assert found is not None and found.auction_id == auction_id
        # Wrong direction / window / bandwidth: no cover.
        egress = (isd_as.isd, isd_as.asn, crossing.ingress, False)
        assert index.find_auction([egress], WINDOW[0], WINDOW[1], 2_500) is None
        assert index.find_auction([ingress], WINDOW[0], WINDOW[1] + 600, 2_500) is None
        assert host.place_bid(
            deployment.marketplace, auction_id, 2_500, 9_000
        ).effects.ok
        assert host.await_settle(deployment.marketplace, auction_id) is None
        world["clock"].set(float(WINDOW[0]))
        world["service"].settle_due_auctions()
        outcome = host.await_settle(deployment.marketplace, auction_id)
        assert outcome.won and outcome.bandwidth_kbps == 2_500
        assert len(outcome.assets) == 1
        # The auction is no longer discoverable as open.
        assert index.find_auction([ingress], WINDOW[0], WINDOW[1], 2_500) is None

    def test_place_bid_refuses_budgets_below_the_reserve(self, world):
        """A below-reserve bid could only lock its escrow and lose —
        rejected client-side before any transaction."""
        deployment = world["deployment"]
        auction_id = open_auction(world)
        host = deployment.new_host(name="cheapskate")
        record = world["service"].open_auctions[auction_id]
        units = 2_500 * (WINDOW[1] - WINDOW[0])
        below = (record.reserve_micromist_per_unit * units - 1) // 1_000_000
        with pytest.raises(ValueError, match="below the auction's reserve"):
            host.place_bid(deployment.marketplace, auction_id, 2_500, below)

    def test_refunds_are_consolidated_for_the_next_bid(self, world):
        """Losing escrows come back as fresh coins; the client folds them
        into the payment coin instead of drowning in 'insufficient escrow'."""
        deployment = world["deployment"]
        service = world["service"]
        auction_id = open_auction(world, bandwidth_kbps=6_000)
        # Fund with just enough for ~one escrow, then lose the auction.
        host = deployment.new_host(name="persistent", funding_sui=6_000 / 1e9)
        rival = deployment.new_host(name="rival")
        assert host.place_bid(
            deployment.marketplace, auction_id, 2_500, 4_000
        ).effects.ok
        assert rival.place_bid(
            deployment.marketplace, auction_id, 6_000, 18_000
        ).effects.ok
        world["clock"].set(float(WINDOW[0]))
        service.settle_due_auctions()
        assert not host.await_settle(deployment.marketplace, auction_id).won
        # A second auction: the refunded escrow must be spendable again.
        service.open_auction(
            deployment.marketplace, world["crossing"].ingress, True, 6_000,
            WINDOW[0] + 600, WINDOW[1] + 600, 50,
        )
        second = next(iter(service.open_auctions))
        again = host.place_bid(deployment.marketplace, second, 2_500, 4_000)
        assert again.effects.ok, again.effects.error

    def test_acquire_bids_when_an_auction_covers(self, world):
        deployment = world["deployment"]
        crossing = world["crossing"]
        auction_id = open_auction(world)
        host = deployment.new_host(name="acquirer")
        outcome = host.acquire(
            deployment.marketplace, crossing.isd_as, crossing.ingress, True,
            WINDOW[0], WINDOW[1], 2_500, max_price_mist=9_000,
        )
        assert outcome.mode == "bid"
        assert outcome.reference == auction_id
        assert outcome.submitted.effects.ok

    def test_acquire_falls_back_to_posted_listings(self, world):
        """No auction over the seed window: the planner's market answers."""
        deployment = world["deployment"]
        crossing = world["crossing"]
        host = deployment.new_host(name="fallback")
        outcome = host.acquire(
            deployment.marketplace, crossing.isd_as, crossing.ingress, True,
            T0 + 60, T0 + 660, 1_000, max_price_mist=10_000_000,
        )
        assert outcome.mode == "bought"
        assert outcome.submitted.effects.ok
        assert outcome.price_mist > 0

    def test_acquire_raises_when_nothing_covers(self, world):
        deployment = world["deployment"]
        crossing = world["crossing"]
        host = deployment.new_host(name="nobody")
        with pytest.raises(ListingNotFound):
            host.acquire(
                deployment.marketplace, crossing.isd_as, crossing.ingress, True,
                T0 + 100_000, T0 + 100_600, 1_000, max_price_mist=10_000_000,
            )

    def test_won_asset_redeems_and_claims_active_calendar(self, world):
        """bid -> settle -> redeem_pair -> delivery claims live capacity."""
        deployment = world["deployment"]
        service, crossing = world["service"], world["crossing"]
        auction_id = open_auction(world, bandwidth_kbps=6_000)
        host = deployment.new_host(name="winner")
        assert host.place_bid(
            deployment.marketplace, auction_id, 2_500, 9_000
        ).effects.ok
        # A matching posted egress listing for the auction window.
        assert service.issue_and_list(
            deployment.marketplace, crossing.egress, False, 6_000, *WINDOW, 50
        ).effects.ok
        world["clock"].set(float(WINDOW[0]))
        service.settle_due_auctions()
        won = host.await_settle(deployment.marketplace, auction_id).assets[0]
        egress = host.acquire(
            deployment.marketplace, crossing.isd_as, crossing.egress, False,
            WINDOW[0], WINDOW[1], 2_500, max_price_mist=10_000_000,
        )
        assert egress.mode == "bought"
        redeemed = host.redeem_pair(
            won, egress.submitted.effects.returns[0]["asset"]
        )
        assert redeemed.effects.ok, redeemed.effects.error
        assert len(service.poll_and_deliver()) == 1
        reservations = host.collect_reservations()
        assert len(reservations) == 1
        assert reservations[0].isd_as == crossing.isd_as
        active = service.admission.calendar(crossing.ingress, True, ACTIVE)
        assert active.peak_commitment(*WINDOW) == 2_500
