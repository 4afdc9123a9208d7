"""PurchasePlanner: flex valleys, mixed granularities, budget guards."""

import pytest

from tests.conftest import T0

from repro.admission import ScarcityPricer
from repro.clock import SimClock
from repro.controlplane import deploy_market, purchase_path
from repro.invariants import check
from repro.marketdata import (
    BudgetExceeded,
    IncompatibleGranularity,
    ListingNotFound,
    MarketIndexer,
    PathSpec,
    PurchasePlanner,
)
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing

MARKET_BW = 100_000  # kbps issued per interface direction
BASE_PRICE = 50
PEAK = (T0 + 600, T0 + 1200)


@pytest.fixture(scope="module")
def valley_world():
    """A scarcity-priced market whose peak window sold out and restocked.

    The crowd buys the whole peak at the base price and redeems (active
    calendars spike), then every AS restocks the peak at its
    scarcity-adjusted quote — so peak capacity exists again at a premium
    while the off-peak remainders still sell at the base price.
    """
    clock = SimClock(float(T0))
    topology = linear_topology(2)
    deployment = deploy_market(
        topology,
        clock=clock,
        asset_start=T0,
        asset_duration=7200,
        asset_bandwidth_kbps=MARKET_BW,
        price_micromist_per_unit=BASE_PRICE,
        interface_capacity_kbps=2 * MARKET_BW,
        pricer=ScarcityPricer(),
    )
    store = run_beaconing(topology, timestamp=T0)
    path = PathLookup(store).find_paths(
        topology.ases[1].isd_as, topology.ases[0].isd_as
    )[0]
    crossings = as_crossings(path)

    crowd = deployment.new_host(name="crowd")
    purchase_path(
        deployment, crowd, crossings, start=PEAK[0], expiry=PEAK[1],
        bandwidth_kbps=MARKET_BW,
    )
    for crossing in crossings:
        service = deployment.service(crossing.isd_as)
        for interface, is_ingress in (
            (crossing.ingress, True),
            (crossing.egress, False),
        ):
            restocked = service.issue_and_list(
                deployment.marketplace, interface, is_ingress,
                MARKET_BW, *PEAK, BASE_PRICE,
            )
            assert restocked.effects.ok
    yield {"deployment": deployment, "crossings": crossings}
    check(deployment, clock.now())


class TestFlexValley:
    def test_flex_quote_cheaper_than_zero_flex_on_loaded_interface(self, valley_world):
        """Acceptance regression: flex_start > 0 finds the valley."""
        deployment = valley_world["deployment"]
        crossings = valley_world["crossings"]
        rigid = deployment.planner.best(
            PathSpec.from_crossings(crossings, PEAK[0], PEAK[0] + 600, 2500)
        )
        flexible = deployment.planner.best(
            PathSpec.from_crossings(
                crossings, PEAK[0], PEAK[0] + 600, 2500, flex_start=1800
            )
        )
        assert rigid.offset == 0
        assert flexible.offset > 0  # slid out of the peak...
        assert flexible.price_mist < rigid.price_mist  # ...and pays less
        # The peak quote carries the scarcity premium; the valley quote is
        # the base price for the same rectangle.
        base = sum(
            listing.price_for(2500, flexible.start, flexible.expiry)
            for hop in flexible.hops
            for listing in (
                hop.ingress_candidate.listing, hop.egress_candidate.listing,
            )
        )
        assert flexible.price_mist == base

    def test_flex_purchase_pays_the_valley_price(self, valley_world):
        deployment = valley_world["deployment"]
        crossings = valley_world["crossings"]
        rigid_quote = deployment.planner.best(
            PathSpec.from_crossings(crossings, PEAK[0], PEAK[0] + 600, 2500)
        )
        host = deployment.new_host(name="flexible-buyer")
        outcome = purchase_path(
            deployment, host, crossings,
            start=PEAK[0], expiry=PEAK[0] + 600, bandwidth_kbps=2500,
            flex_start=1800,
        )
        assert outcome.price_mist < rigid_quote.price_mist
        assert outcome.price_mist == outcome.estimated_price_mist
        assert outcome.quote.offset > 0
        # The reservations really cover the shifted window.
        for reservation in outcome.reservations:
            assert reservation.resinfo.start <= outcome.quote.start
            assert reservation.resinfo.expiry >= outcome.quote.expiry

    def test_quotes_ranked_cheapest_first(self, valley_world):
        deployment = valley_world["deployment"]
        crossings = valley_world["crossings"]
        quotes = deployment.planner.quote(
            PathSpec.from_crossings(
                crossings, PEAK[0], PEAK[0] + 600, 2500, flex_start=1800
            )
        )
        assert len(quotes) >= 2
        prices = [quote.price_mist for quote in quotes]
        assert prices == sorted(prices)


class TestBudget:
    def test_planner_enforces_budget(self, valley_world):
        deployment = valley_world["deployment"]
        crossings = valley_world["crossings"]
        cheapest = deployment.planner.best(
            PathSpec.from_crossings(crossings, PEAK[0], PEAK[0] + 600, 2500)
        )
        with pytest.raises(BudgetExceeded):
            deployment.planner.best(
                PathSpec.from_crossings(
                    crossings, PEAK[0], PEAK[0] + 600, 2500,
                    budget_mist=cheapest.price_mist - 1,
                )
            )

    def test_buy_guard_refuses_before_submitting(self, valley_world):
        deployment = valley_world["deployment"]
        crossings = valley_world["crossings"]
        host = deployment.new_host(name="capped-buyer")
        plan = host.plan_path(
            deployment.marketplace,
            PathSpec.from_crossings(crossings, PEAK[0], PEAK[0] + 600, 2500),
        )
        checkpoint = deployment.ledger.checkpoint
        with pytest.raises(BudgetExceeded):
            host.atomic_buy_and_redeem(
                deployment.marketplace, plan,
                max_price_mist=plan.price_mist - 1,
            )
        # Refused client-side: nothing reached the ledger.
        assert deployment.ledger.checkpoint == checkpoint

    def test_guard_catches_scarcity_move_between_plan_and_buy(self):
        """The planned listing vanishes and a pricier replacement appears:
        the repriced guard must refuse before submitting."""
        from repro.ledger.transactions import Command, Transaction

        clock = SimClock(float(T0))
        topology = linear_topology(2)
        deployment = deploy_market(
            topology, clock=clock, asset_start=T0, asset_duration=7200
        )
        store = run_beaconing(topology, timestamp=T0)
        path = PathLookup(store).find_paths(
            topology.ases[1].isd_as, topology.ases[0].isd_as
        )[0]
        crossings = as_crossings(path)
        host = deployment.new_host(name="guarded-buyer")
        plan = host.plan_path(
            deployment.marketplace,
            PathSpec.from_crossings(crossings, T0 + 600, T0 + 1200, 4000),
        )
        budget = plan.price_mist

        # Between plan and buy, the seller yanks a planned listing and
        # relists the same asset at double the price.
        victim = plan.hops[0].ingress_candidate.listing.listing_id
        seller = deployment.service(plan.hops[0].isd_as)
        cancelled = seller.cancel_listing(deployment.marketplace, victim)
        assert cancelled.effects.ok
        relisted = seller.executor.submit(
            Transaction(
                sender=seller.account.address,
                commands=[
                    Command(
                        "market",
                        "create_listing",
                        {
                            "marketplace": deployment.marketplace,
                            "asset": cancelled.effects.returns[0]["asset"],
                            "price_micromist_per_unit": 100,  # was 50
                        },
                    )
                ],
            )
        )
        assert relisted.effects.ok

        checkpoint = deployment.ledger.checkpoint
        with pytest.raises(BudgetExceeded, match="repriced"):
            host.atomic_buy_and_redeem(
                deployment.marketplace, plan, max_price_mist=budget
            )
        assert deployment.ledger.checkpoint == checkpoint  # nothing submitted
        check(deployment, clock.now())

    def test_guard_substitutes_same_price_replacement_and_buys(self):
        """The planned listing vanishes but an equally priced replacement
        exists: the guard substitutes it and the purchase SUCCEEDS instead
        of submitting a doomed transaction against the dead listing id."""
        from repro.ledger.transactions import Command, Transaction

        clock = SimClock(float(T0))
        topology = linear_topology(2)
        deployment = deploy_market(
            topology, clock=clock, asset_start=T0, asset_duration=7200
        )
        store = run_beaconing(topology, timestamp=T0)
        path = PathLookup(store).find_paths(
            topology.ases[1].isd_as, topology.ases[0].isd_as
        )[0]
        crossings = as_crossings(path)
        host = deployment.new_host(name="substituted-buyer")
        plan = host.plan_path(
            deployment.marketplace,
            PathSpec.from_crossings(crossings, T0 + 600, T0 + 1200, 4000),
        )
        victim = plan.hops[0].ingress_candidate.listing.listing_id
        seller = deployment.service(plan.hops[0].isd_as)
        cancelled = seller.cancel_listing(deployment.marketplace, victim)
        assert cancelled.effects.ok
        relisted = seller.executor.submit(
            Transaction(
                sender=seller.account.address,
                commands=[
                    Command(
                        "market",
                        "create_listing",
                        {
                            "marketplace": deployment.marketplace,
                            "asset": cancelled.effects.returns[0]["asset"],
                            "price_micromist_per_unit": 50,  # unchanged price
                        },
                    )
                ],
            )
        )
        assert relisted.effects.ok
        submitted = host.atomic_buy_and_redeem(
            deployment.marketplace, plan,
            max_price_mist=plan.price_mist,
        )
        assert submitted.effects.ok  # bought via the substituted listing
        check(deployment, clock.now())

    def test_indexer_best_rejects_planner_only_fields(self, valley_world):
        from repro.marketdata import ListingQuery

        deployment = valley_world["deployment"]
        crossing = valley_world["crossings"][0]
        with pytest.raises(ValueError, match="zero-flex"):
            deployment.indexer.best(
                ListingQuery(
                    isd_as=crossing.isd_as, interface=crossing.ingress,
                    is_ingress=True, start=PEAK[0], expiry=PEAK[1],
                    bandwidth_kbps=1000, flex_start=600,
                )
            )

    def test_estimate_equals_paid_in_calm_market(self, valley_world):
        deployment = valley_world["deployment"]
        crossings = valley_world["crossings"]
        host = deployment.new_host(name="calm-buyer")
        outcome = purchase_path(
            deployment, host, crossings,
            start=T0 + 3600, expiry=T0 + 4200, bandwidth_kbps=1000,
            max_price_mist=10_000_000,
        )
        assert outcome.price_mist == outcome.estimated_price_mist


class TestMixedGranularity:
    def test_coarser_granule_alignment_succeeds(self, raw_market):
        """60s ingress + 120s egress resolve to the coarser shared window."""
        raw_market.issue_and_list(1, True, 10_000, 0, 3600, granularity=60)
        raw_market.issue_and_list(2, False, 10_000, 0, 3600, granularity=120)
        planner = PurchasePlanner(
            MarketIndexer(raw_market.ledger, raw_market.marketplace)
        )
        hop = planner.resolve_hop(raw_market.isd_as, 1, 2, 60, 120, 1000)
        assert (hop.start, hop.expiry) == (0, 120)  # aligned to the 120s granule
        assert hop.ingress_candidate.listing.granularity == 60
        assert hop.egress_candidate.listing.granularity == 120

    def test_irreconcilable_granularities_raise_dedicated_error(self, raw_market):
        """No shared granule inside validity -> IncompatibleGranularity."""
        raw_market.issue_and_list(1, True, 10_000, 0, 3600, granularity=60)
        raw_market.issue_and_list(2, False, 10_000, 0, 3500, granularity=3500)
        planner = PurchasePlanner(
            MarketIndexer(raw_market.ledger, raw_market.marketplace)
        )
        with pytest.raises(IncompatibleGranularity) as caught:
            planner.resolve_hop(raw_market.isd_as, 1, 2, 60, 120, 1000)
        message = str(caught.value)
        assert "granularity 60s" in message
        assert "granularity 3500s" in message
        # Still a ListingNotFound subclass: legacy handlers keep working.
        assert isinstance(caught.value, ListingNotFound)

    def test_coprime_granularities_resolve_via_lattice_intersection(self, raw_market):
        """60s vs 61s granules share the lcm lattice: the joint window is
        computed arithmetically, not by iterative growth (which would need
        ~61 rounds to reach [0, 3660))."""
        raw_market.issue_and_list(1, True, 10_000, 0, 43_920, granularity=60)
        raw_market.issue_and_list(2, False, 10_000, 0, 43_920, granularity=61)
        planner = PurchasePlanner(
            MarketIndexer(raw_market.ledger, raw_market.marketplace)
        )
        hop = planner.resolve_hop(raw_market.isd_as, 1, 2, 60, 120, 1000)
        assert (hop.start, hop.expiry) == (0, 3660)  # lcm(60, 61)

    def test_missing_inventory_still_plain_listing_not_found(self, raw_market):
        raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        planner = PurchasePlanner(
            MarketIndexer(raw_market.ledger, raw_market.marketplace)
        )
        with pytest.raises(ListingNotFound) as caught:
            planner.resolve_hop(raw_market.isd_as, 1, 2, 60, 120, 1000)
        assert not isinstance(caught.value, IncompatibleGranularity)
