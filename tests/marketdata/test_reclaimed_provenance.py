"""Reclaimed-listing provenance through the indexer."""

from tests.marketdata.conftest import RawMarket

from repro.marketdata import MarketIndexer

PROVENANCE = {
    "res_id": 7,
    "original_holder": "holder-address",
    "reclaimed_kbps": 4_000,
    "observed_kbps": 12.5,
}


def _reclaimed_listing(market: RawMarket, price: int = 50) -> str:
    asset = market.run(
        market.seller, "asset", "issue",
        token=market.token, bandwidth_kbps=4_000, start=0, expiry=600,
        interface=1, is_ingress=True, granularity=60, min_bandwidth_kbps=100,
    ).returns[0]["asset"]
    return market.run(
        market.seller, "market", "create_listing",
        marketplace=market.marketplace, asset=asset,
        price_micromist_per_unit=price, provenance=PROVENANCE,
    ).returns[0]["listing"]


def test_reclaimed_event_annotates_the_listing():
    market = RawMarket(seed=5)
    plain = market.issue_and_list(2, True, 1_000, 0, 600)
    reclaimed = _reclaimed_listing(market)
    indexer = MarketIndexer(market.ledger, market.marketplace)
    indexer.sync()
    assert indexer.reclaimed_seen == 1
    assert indexer.provenance(reclaimed) == PROVENANCE
    assert indexer.provenance(plain) is None
    # Both are ordinary listings to every query path.
    assert indexer.count == 2


def test_provenance_is_pruned_when_the_listing_closes():
    market = RawMarket(seed=8)
    reclaimed = _reclaimed_listing(market)
    indexer = MarketIndexer(market.ledger, market.marketplace)
    indexer.sync()
    # Buy the whole rectangle: the listing closes and the annotation goes.
    effects = market.buy(reclaimed, start=0, expiry=600, bandwidth_kbps=4_000)
    assert effects.ok, effects.error
    indexer.sync()
    assert indexer.listing(reclaimed) is None
    assert indexer.provenance(reclaimed) is None
