"""Ledger-level sealed-bid auctions: escrow, settle, refunds, reverts."""

import random

import pytest

from repro.contracts.asset import ASSET_TYPE, AssetContract
from repro.contracts.coin import CoinContract, coin_balance
from repro.contracts.market import AUCTION_TYPE, BID_TYPE, LISTING_TYPE, MarketContract
from repro.controlplane.pki import CpPki
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.transactions import Command, Result, Transaction
from repro.marketdata import MarketIndexer
from repro.scion.addresses import IsdAs

AS_ID = IsdAs(1, 42)
WINDOW = (1000, 1000 + 600)
FUNDING = sui_to_mist(1)


@pytest.fixture
def world():
    """Ledger + marketplace + a registered seller AS and an open auction."""
    rng = random.Random(11)
    pki = CpPki(rng)
    ledger = Ledger()
    ledger.register_contract(CoinContract())
    ledger.register_contract(AssetContract(pki))
    ledger.register_contract(MarketContract())

    seller = Account.generate(rng, "as")
    certificate = pki.issue_certificate(AS_ID, seller.signing_key.public)
    proof = seller.signing_key.sign(seller.address.encode())
    registered = ledger.execute(
        Transaction(
            seller.address,
            [
                Command(
                    "asset",
                    "register_as",
                    {
                        "certificate": certificate,
                        "signature": proof,
                    },
                )
            ],
        )
    )
    assert registered.ok, registered.error
    token = registered.returns[0]["token"]
    created = ledger.execute(
        Transaction(seller.address, [Command("market", "create_marketplace", {})])
    )
    marketplace = created.returns[0]["marketplace"]
    assert ledger.execute(
        Transaction(
            seller.address,
            [Command("market", "register_seller", {"marketplace": marketplace})],
        )
    ).ok
    return {
        "rng": rng,
        "ledger": ledger,
        "seller": seller,
        "token": token,
        "marketplace": marketplace,
    }


def open_auction(world, bandwidth_kbps=1000, reserve=20, min_bw=100):
    effects = world["ledger"].execute(
        Transaction(
            world["seller"].address,
            [
                Command(
                    "asset",
                    "issue",
                    {
                        "token": world["token"],
                        "bandwidth_kbps": bandwidth_kbps,
                        "start": WINDOW[0],
                        "expiry": WINDOW[1],
                        "interface": 1,
                        "is_ingress": True,
                        "granularity": 60,
                        "min_bandwidth_kbps": min_bw,
                    },
                ),
                Command(
                    "market",
                    "create_auction",
                    {
                        "marketplace": world["marketplace"],
                        "asset": Result(0, "asset"),
                        "reserve_micromist_per_unit": reserve,
                    },
                ),
            ],
        )
    )
    assert effects.ok, effects.error
    return effects.returns[1]["auction"]


def bidder(world, name):
    account = Account.generate(world["rng"], name)
    funded = world["ledger"].execute(
        Transaction(account.address, [Command("coin", "mint", {"amount": FUNDING})])
    )
    return account, funded.returns[0]["coin"]


def place_bid(world, account, coin, auction, bandwidth_kbps, price):
    return world["ledger"].execute(
        Transaction(
            account.address,
            [
                Command(
                    "market",
                    "place_bid",
                    {
                        "marketplace": world["marketplace"],
                        "auction": auction,
                        "bandwidth_kbps": bandwidth_kbps,
                        "price_micromist_per_unit": price,
                        "payment": coin,
                    },
                )
            ],
        )
    )


def settle(world, auction, supply_kbps=None):
    return world["ledger"].execute(
        Transaction(
            world["seller"].address,
            [
                Command(
                    "market",
                    "settle_auction",
                    {
                        "marketplace": world["marketplace"],
                        "auction": auction,
                        "supply_kbps": supply_kbps,
                    },
                )
            ],
        )
    )


class TestPlaceBid:
    def test_escrows_the_maximum_payment(self, world):
        auction = open_auction(world)
        account, coin = bidder(world, "alice")
        effects = place_bid(world, account, coin, auction, 400, 90)
        assert effects.ok, effects.error
        # escrow = ceil(400 kbps * 600 s * 90 / 1e6) = 22 MIST
        assert effects.returns[0]["escrow_mist"] == 22
        assert coin_balance(world["ledger"], account.address) == FUNDING - 22

    def test_rejects_bandwidth_outside_asset_bounds(self, world):
        auction = open_auction(world, bandwidth_kbps=1000, min_bw=100)
        account, coin = bidder(world, "alice")
        assert "outside" in place_bid(world, account, coin, auction, 99, 50).error
        assert "outside" in place_bid(world, account, coin, auction, 1001, 50).error

    def test_seller_cannot_shill_bid_their_own_auction(self, world):
        """A riskless seller bid would inflate the uniform clearing price."""
        auction = open_auction(world)
        funded = world["ledger"].execute(
            Transaction(
                world["seller"].address,
                [Command("coin", "mint", {"amount": FUNDING})],
            )
        )
        effects = place_bid(
            world, world["seller"], funded.returns[0]["coin"], auction, 400, 90
        )
        assert not effects.ok
        assert "seller cannot bid" in effects.error

    def test_rejects_insufficient_escrow(self, world):
        auction = open_auction(world)
        account, coin = bidder(world, "alice")
        broke = place_bid(world, account, coin, auction, 1000, 10**10)
        assert "insufficient escrow" in broke.error
        # The abort rolled the coin deduction back.
        assert coin_balance(world["ledger"], account.address) == FUNDING


class TestSettle:
    def test_uniform_price_awards_and_refunds_atomically(self, world):
        auction = open_auction(world, bandwidth_kbps=1000, reserve=20)
        people = []
        for name, bw, price in (("alice", 400, 90), ("bob", 400, 70), ("carol", 400, 50)):
            account, coin = bidder(world, name)
            assert place_bid(world, account, coin, auction, bw, price).ok
            people.append(account)
        effects = settle(world, auction)
        assert effects.ok, effects.error
        result = effects.returns[0]
        # carol's losing 50 sets the price; alice and bob pay it.
        assert result["clearing_price_micromist"] == 50
        assert [w["bidder"] for w in result["winners"]] == [
            people[0].address,
            people[1].address,
        ]
        paid = -(-400 * 600 * 50 // 1_000_000)  # 12 MIST each
        ledger = world["ledger"]
        assert coin_balance(ledger, people[0].address) == FUNDING - paid
        assert coin_balance(ledger, people[1].address) == FUNDING - paid
        assert coin_balance(ledger, people[2].address) == FUNDING  # full refund
        assert result["proceeds_mist"] == 2 * paid
        assert coin_balance(ledger, world["seller"].address) == 2 * paid
        # Money is conserved across escrow, refunds and proceeds.
        total = sum(coin_balance(ledger, p.address) for p in people)
        assert total + 2 * paid == 3 * FUNDING
        # Winners own their carved assets; the 200 kbps remainder is
        # re-listed at the reserve price.
        for winner, account in zip(result["winners"], people[:2]):
            asset = ledger.get_object(winner["asset"])
            assert asset.type_tag == ASSET_TYPE
            assert asset.owner == account.address
            assert asset.payload["bandwidth_kbps"] == 400
        indexer = MarketIndexer(ledger, world["marketplace"])
        indexer.sync()
        remainder = indexer.listing(result["listing"])
        assert remainder.bandwidth_kbps == 200
        assert remainder.price_micromist_per_unit == 20

    def test_zero_bids_reverts_window_to_posted_price(self, world):
        auction = open_auction(world, bandwidth_kbps=1000, reserve=35)
        effects = settle(world, auction)
        assert effects.ok, effects.error
        result = effects.returns[0]
        assert result["winners"] == [] and result["awarded_kbps"] == 0
        indexer = MarketIndexer(world["ledger"], world["marketplace"])
        indexer.sync()
        listing = indexer.listing(result["listing"])
        assert listing.bandwidth_kbps == 1000
        assert listing.price_micromist_per_unit == 35  # the reserve
        assert (listing.start, listing.expiry) == WINDOW

    def test_all_bids_below_reserve_refunds_everyone_and_reverts(self, world):
        auction = open_auction(world, bandwidth_kbps=1000, reserve=50)
        accounts = []
        for name, price in (("alice", 30), ("bob", 49)):
            account, coin = bidder(world, name)
            assert place_bid(world, account, coin, auction, 400, price).ok
            accounts.append(account)
        effects = settle(world, auction)
        assert effects.ok, effects.error
        result = effects.returns[0]
        assert result["winners"] == []
        assert {l["reason"] for l in result["losers"]} == {"below reserve"}
        for account in accounts:
            assert coin_balance(world["ledger"], account.address) == FUNDING
        assert result["listing"] is not None
        assert result["clearing_price_micromist"] == 50

    def test_tie_bids_at_the_clearing_price_break_by_arrival(self, world):
        """Deterministic tie-break: earlier on-chain bid wins, pays the tie."""
        auction = open_auction(world, bandwidth_kbps=600, min_bw=100, reserve=20)
        first, first_coin = bidder(world, "first")
        second, second_coin = bidder(world, "second")
        assert place_bid(world, first, first_coin, auction, 600, 70).ok
        assert place_bid(world, second, second_coin, auction, 600, 70).ok
        effects = settle(world, auction)
        result = effects.returns[0]
        assert [w["bidder"] for w in result["winners"]] == [first.address]
        assert result["losers"][0]["bidder"] == second.address
        assert result["clearing_price_micromist"] == 70
        assert coin_balance(world["ledger"], second.address) == FUNDING

    def test_supply_clamp_shrinks_awards_and_lists_remainder(self, world):
        """The headroom-loss path: the AS settles with supply < offered."""
        auction = open_auction(world, bandwidth_kbps=1000, reserve=20)
        alice, alice_coin = bidder(world, "alice")
        bob, bob_coin = bidder(world, "bob")
        assert place_bid(world, alice, alice_coin, auction, 500, 90).ok
        assert place_bid(world, bob, bob_coin, auction, 300, 80).ok
        effects = settle(world, auction, supply_kbps=400)
        assert effects.ok, effects.error
        result = effects.returns[0]
        assert [w["bidder"] for w in result["winners"]] == [bob.address]
        assert result["awarded_kbps"] == 300
        indexer = MarketIndexer(world["ledger"], world["marketplace"])
        indexer.sync()
        assert indexer.listing(result["listing"]).bandwidth_kbps == 700

    def test_whole_asset_award_leaves_no_listing(self, world):
        auction = open_auction(world, bandwidth_kbps=600, min_bw=100)
        account, coin = bidder(world, "alice")
        assert place_bid(world, account, coin, auction, 600, 90).ok
        result = settle(world, auction).returns[0]
        assert result["listing"] is None
        assert result["awarded_kbps"] == 600

    def test_only_the_seller_may_settle(self, world):
        auction = open_auction(world)
        outsider, _ = bidder(world, "mallory")
        effects = world["ledger"].execute(
            Transaction(
                outsider.address,
                [
                    Command(
                        "market",
                        "settle_auction",
                        {"marketplace": world["marketplace"], "auction": auction},
                    )
                ],
            )
        )
        assert not effects.ok
        assert "not the seller" in effects.error

    def test_supply_above_asset_bandwidth_aborts(self, world):
        auction = open_auction(world, bandwidth_kbps=1000)
        effects = settle(world, auction, supply_kbps=1001)
        assert not effects.ok
        assert "supply" in effects.error

    def test_double_settle_aborts(self, world):
        auction = open_auction(world)
        assert settle(world, auction).ok
        again = settle(world, auction)
        assert not again.ok

    def test_settle_destroys_auction_and_bid_objects(self, world):
        auction = open_auction(world)
        account, coin = bidder(world, "alice")
        placed = place_bid(world, account, coin, auction, 400, 90)
        bid_id = placed.returns[0]["bid"]
        assert settle(world, auction).ok
        ledger = world["ledger"]
        assert auction not in ledger.objects
        assert bid_id not in ledger.objects
        assert not [o for o in ledger.objects.values() if o.type_tag == AUCTION_TYPE]
        assert not [o for o in ledger.objects.values() if o.type_tag == BID_TYPE]

    def test_unregistered_seller_cannot_open_auction(self, world):
        rng = world["rng"]
        outsider = Account.generate(rng, "outsider")
        effects = world["ledger"].execute(
            Transaction(
                outsider.address,
                [
                    Command(
                        "market",
                        "create_auction",
                        {
                            "marketplace": world["marketplace"],
                            "asset": "nonexistent",
                            "reserve_micromist_per_unit": 10,
                        },
                    )
                ],
            )
        )
        assert not effects.ok
        assert "seller not registered" in effects.error
