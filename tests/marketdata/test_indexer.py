"""MarketIndexer lifecycle: Listed/Sold/Delisted/Relisted, incrementality."""

import math

from repro.marketdata import ListingQuery, MarketIndexer, naive_best_listing
from repro.marketdata.naive import iter_listings
from repro.scion.addresses import IsdAs

AS19 = IsdAs(1, 9)


def query(start, expiry, bw, interface=1, is_ingress=True, exact=False):
    return ListingQuery(
        isd_as=AS19, interface=interface, is_ingress=is_ingress,
        start=start, expiry=expiry, bandwidth_kbps=bw, exact_window=exact,
    )


def assert_matches_naive(indexer, market, probes):
    """Indexer and full-ledger scan must agree listing-for-listing."""
    indexer.sync()
    indexed = {record.listing_id for record in indexer.listings()}
    scanned = {
        record.listing_id for record in iter_listings(market.ledger, market.marketplace)
    }
    assert indexed == scanned
    for probe in probes:
        fast = indexer.best(probe)
        slow = naive_best_listing(market.ledger, market.marketplace, probe)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.listing.listing_id == slow.listing.listing_id
            assert (fast.price_mist, fast.start, fast.expiry) == (
                slow.price_mist, slow.start, slow.expiry,
            )


class TestLifecycle:
    def test_listed_assets_become_queryable(self, raw_market):
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        indexer.sync()
        found = indexer.best(query(60, 120, 4000))
        assert found is not None
        assert found.listing.listing_id == listing
        assert (found.start, found.expiry) == (60, 120)
        # Price mirrors the contract's ceil(kbps-seconds * unit / 1e6).
        assert found.price_mist == -(-4000 * 60 * 50 // 1_000_000)

    def test_sold_shrinks_the_surviving_listing(self, raw_market):
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        indexer.sync()
        # Tail rectangle: the head remainder stays with the original
        # listing, whose asset the splits mutated down to [0, 600).
        assert raw_market.buy(listing, 600, 3600, 10_000).ok
        indexer.sync()
        record = indexer.listing(listing)
        assert record is not None
        assert (record.start, record.expiry) == (0, 600)
        assert indexer.best(query(600, 1200, 1000)) is None
        assert_matches_naive(
            indexer, raw_market, [query(0, 600, 1000), query(600, 1200, 1000)]
        )

    def test_full_purchase_closes_the_listing(self, raw_market):
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        indexer.sync()
        assert raw_market.buy(listing, 0, 3600, 10_000).ok
        indexer.sync()
        assert indexer.listing(listing) is None
        assert indexer.count == 0

    def test_mid_rectangle_buy_relists_remainders(self, raw_market):
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        indexer.sync()
        # Middle rectangle: head stays with the listing, tail and bandwidth
        # remainders come back as fresh Relisted listings.
        assert raw_market.buy(listing, 600, 1200, 4000).ok
        indexer.sync()
        assert indexer.count == 3
        assert_matches_naive(
            indexer,
            raw_market,
            [
                query(0, 600, 10_000),
                query(600, 1200, 4000),
                query(600, 1200, 6000),
                query(1200, 3600, 10_000),
                query(600, 1200, 10_000),
            ],
        )

    def test_delisted_drops_the_listing(self, raw_market):
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        indexer.sync()
        assert indexer.count == 1
        assert raw_market.cancel(listing).ok
        indexer.sync()
        assert indexer.count == 0
        assert indexer.best(query(0, 600, 1000)) is None

    def test_other_marketplace_events_ignored(self, raw_market):
        other = raw_market.run(
            raw_market.seller, "market", "create_marketplace"
        ).returns[0]["marketplace"]
        raw_market.run(
            raw_market.seller, "market", "register_seller", marketplace=other
        )
        raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, other)
        indexer.sync()
        assert indexer.count == 0


class TestIncrementality:
    def test_sync_applies_only_new_events(self, raw_market):
        raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        first = indexer.sync()
        assert first >= 1
        assert indexer.sync() == 0  # cursor advanced; nothing to reapply
        raw_market.issue_and_list(2, False, 5_000, 0, 3600)
        assert indexer.sync() == 1
        assert indexer.count == 2

    def test_two_indexers_agree_regardless_of_sync_schedule(self, raw_market):
        eager = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        eager.sync()
        assert raw_market.buy(listing, 600, 1200, 4000).ok
        eager.sync()
        assert raw_market.buy(listing, 0, 300, 10_000).ok
        eager.sync()
        late = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        late.sync()  # replays everything in one batch
        assert {r.listing_id for r in eager.listings()} == {
            r.listing_id for r in late.listings()
        }
        for fast, slow in zip(
            sorted(eager.listings(), key=lambda r: r.listing_id),
            sorted(late.listings(), key=lambda r: r.listing_id),
        ):
            assert fast == slow

    def test_replayed_listed_event_is_idempotent(self, raw_market):
        # Regression: an at-least-once event feed re-delivering Listed for
        # a live listing left a duplicate (start, id) entry, so candidates()
        # returned the same listing twice and a later removal left one behind.
        listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        indexer.sync()
        listed = next(
            event
            for event in raw_market.ledger.events
            if event.event_type == "Listed"
            and event.payload["listing"] == listing
        )
        assert indexer._apply(listed)  # replay the same event
        found = indexer.candidates(query(60, 120, 4000), limit=10)
        assert [candidate.listing.listing_id for candidate in found] == [listing]
        assert raw_market.cancel(listing).ok
        indexer.sync()
        assert indexer.candidates(query(60, 120, 4000), limit=10) == []

    def test_unknown_sold_and_delisted_do_not_count_as_applied(self, raw_market):
        # Regression: an indexer attached mid-stream counted Sold/Delisted
        # of never-tracked listings as applied, inflating events_applied.
        sold_listing = raw_market.issue_and_list(1, True, 10_000, 0, 3600)
        cancelled_listing = raw_market.issue_and_list(2, True, 10_000, 0, 3600)
        assert raw_market.buy(sold_listing, 0, 3600, 10_000).ok  # closes it
        assert raw_market.cancel(cancelled_listing).ok
        late = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        # Attach after both listings existed: skip straight to the first
        # Sold, so only Sold/Delisted of unknown listings remain.
        late._position = next(
            position
            for position, event in enumerate(raw_market.ledger.events)
            if event.event_type == "Sold"
        )
        assert late.sync() == 0
        assert late.events_applied == 0
        assert late.count == 0


class TestPriceCurve:
    def test_curve_shows_cheap_and_expensive_windows(self, raw_market):
        raw_market.issue_and_list(1, True, 10_000, 0, 1800, price=100)
        raw_market.issue_and_list(1, True, 10_000, 1800, 3600, price=25)
        indexer = MarketIndexer(raw_market.ledger, raw_market.marketplace)
        times = [0, 600, 1800, 2400, 3600]
        curve = indexer.price_curve(AS19, 1, True, 1000, 600, times)
        assert curve[0] == -(-1000 * 600 * 100 // 1_000_000)
        assert curve[2] == -(-1000 * 600 * 25 // 1_000_000)
        assert curve[2] < curve[0]  # the valley is visible
        assert math.isinf(curve[4])  # beyond every asset: uncovered
