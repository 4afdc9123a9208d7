"""Ledger-level combinatorial path auctions: one escrow, all legs or none."""

import random

import pytest

from repro.contracts.asset import AssetContract
from repro.contracts.coin import CoinContract, coin_balance
from repro.contracts.market import MarketContract
from repro.controlplane.pki import CpPki
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.transactions import Command, Result, Transaction
from repro.scion.addresses import IsdAs

WINDOW = (1000, 1000 + 600)
DURATION = WINDOW[1] - WINDOW[0]
FUNDING = sui_to_mist(1)
MICROMIST = 1_000_000


@pytest.fixture
def world():
    """Ledger + marketplace + two registered leg-seller ASes."""
    rng = random.Random(13)
    pki = CpPki(rng)
    ledger = Ledger()
    ledger.register_contract(CoinContract())
    ledger.register_contract(AssetContract(pki))
    ledger.register_contract(MarketContract())

    def make_seller(isd_as, name):
        account = Account.generate(rng, name)
        certificate = pki.issue_certificate(isd_as, account.signing_key.public)
        proof = account.signing_key.sign(account.address.encode())
        registered = ledger.execute(
            Transaction(
                account.address,
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
        return account, registered.returns[0]["token"]

    seller_a, token_a = make_seller(IsdAs(1, 42), "as-a")
    seller_b, token_b = make_seller(IsdAs(1, 43), "as-b")
    created = ledger.execute(
        Transaction(seller_a.address, [Command("market", "create_marketplace", {})])
    )
    marketplace = created.returns[0]["marketplace"]
    for seller in (seller_a, seller_b):
        assert ledger.execute(
            Transaction(
                seller.address,
                [Command("market", "register_seller", {"marketplace": marketplace})],
            )
        ).ok
    return {
        "rng": rng,
        "ledger": ledger,
        "marketplace": marketplace,
        "sellers": [(seller_a, token_a), (seller_b, token_b)],
    }


def open_path_auction(world, bandwidths=(1000, 1000), reserve=20, min_bw=100):
    ledger = world["ledger"]
    creator = world["sellers"][0][0]
    opened = ledger.execute(
        Transaction(
            creator.address,
            [
                Command(
                    "market",
                    "create_path_auction",
                    {"marketplace": world["marketplace"], "num_legs": len(bandwidths)},
                )
            ],
        )
    )
    assert opened.ok, opened.error
    path_auction = opened.returns[0]["path_auction"]
    for index, bandwidth in enumerate(bandwidths):
        seller, token = world["sellers"][index % len(world["sellers"])]
        contributed = ledger.execute(
            Transaction(
                seller.address,
                [
                    Command(
                        "asset",
                        "issue",
                        {
                            "token": token,
                            "bandwidth_kbps": bandwidth,
                            "start": WINDOW[0],
                            "expiry": WINDOW[1],
                            "interface": index + 1,
                            "is_ingress": index % 2 == 0,
                            "granularity": 60,
                            "min_bandwidth_kbps": min_bw,
                        },
                    ),
                    Command(
                        "market",
                        "contribute_path_leg",
                        {
                            "marketplace": world["marketplace"],
                            "path_auction": path_auction,
                            "leg_index": index,
                            "asset": Result(0, "asset"),
                            "reserve_micromist_per_unit": reserve,
                        },
                    ),
                ],
            )
        )
        assert contributed.ok, contributed.error
    return path_auction


def make_bidder(world, name):
    account = Account.generate(world["rng"], name)
    funded = world["ledger"].execute(
        Transaction(account.address, [Command("coin", "mint", {"amount": FUNDING})])
    )
    return account, funded.returns[0]["coin"]


def place_path_bid(world, account, coin, path_auction, bandwidth_kbps, price):
    return world["ledger"].execute(
        Transaction(
            account.address,
            [
                Command(
                    "market",
                    "place_path_bid",
                    {
                        "marketplace": world["marketplace"],
                        "path_auction": path_auction,
                        "bandwidth_kbps": bandwidth_kbps,
                        "price_micromist_per_unit": price,
                        "payment": coin,
                    },
                )
            ],
        )
    )


def settle(world, path_auction, supplies_kbps=None, sender=None):
    sender = sender if sender is not None else world["sellers"][0][0]
    return world["ledger"].execute(
        Transaction(
            sender.address,
            [
                Command(
                    "market",
                    "settle_path_auction",
                    {
                        "marketplace": world["marketplace"],
                        "path_auction": path_auction,
                        "supplies_kbps": supplies_kbps,
                    },
                )
            ],
        )
    )


class TestPlacePathBid:
    def test_escrow_covers_every_leg(self, world):
        path_auction = open_path_auction(world)
        account, coin = make_bidder(world, "alice")
        effects = place_path_bid(world, account, coin, path_auction, 400, 90)
        assert effects.ok, effects.error
        # per leg: ceil(400 * 600 * 90 / 1e6) = 22 MIST; two legs -> 44.
        assert effects.returns[0]["escrow_mist"] == 44
        assert coin_balance(world["ledger"], account.address) == FUNDING - 44

    def test_rejects_bids_before_full_contribution(self, world):
        ledger = world["ledger"]
        creator = world["sellers"][0][0]
        opened = ledger.execute(
            Transaction(
                creator.address,
                [
                    Command(
                        "market",
                        "create_path_auction",
                        {"marketplace": world["marketplace"], "num_legs": 2},
                    )
                ],
            )
        )
        path_auction = opened.returns[0]["path_auction"]
        account, coin = make_bidder(world, "early")
        effects = place_path_bid(world, account, coin, path_auction, 400, 90)
        assert not effects.ok and "not fully contributed" in effects.error

    def test_leg_seller_cannot_bid(self, world):
        path_auction = open_path_auction(world)
        seller_b = world["sellers"][1][0]
        funded = world["ledger"].execute(
            Transaction(
                seller_b.address, [Command("coin", "mint", {"amount": FUNDING})]
            )
        )
        effects = place_path_bid(
            world, seller_b, funded.returns[0]["coin"], path_auction, 400, 90
        )
        assert not effects.ok and "cannot bid" in effects.error

    def test_bandwidth_bounded_by_narrowest_leg(self, world):
        path_auction = open_path_auction(world, bandwidths=(1000, 600))
        account, coin = make_bidder(world, "wide")
        effects = place_path_bid(world, account, coin, path_auction, 700, 90)
        assert not effects.ok and "outside" in effects.error

    def test_legs_must_share_the_window(self, world):
        ledger = world["ledger"]
        creator, token = world["sellers"][0]
        opened = ledger.execute(
            Transaction(
                creator.address,
                [
                    Command(
                        "market",
                        "create_path_auction",
                        {"marketplace": world["marketplace"], "num_legs": 2},
                    )
                ],
            )
        )
        path_auction = opened.returns[0]["path_auction"]

        def contribute(start, expiry, leg_index):
            return ledger.execute(
                Transaction(
                    creator.address,
                    [
                        Command(
                            "asset",
                            "issue",
                            {
                                "token": token,
                                "bandwidth_kbps": 500,
                                "start": start,
                                "expiry": expiry,
                                "interface": 1,
                                "is_ingress": True,
                                "granularity": 60,
                                "min_bandwidth_kbps": 100,
                            },
                        ),
                        Command(
                            "market",
                            "contribute_path_leg",
                            {
                                "marketplace": world["marketplace"],
                                "path_auction": path_auction,
                                "leg_index": leg_index,
                                "asset": Result(0, "asset"),
                                "reserve_micromist_per_unit": 20,
                            },
                        ),
                    ],
                )
            )

        assert contribute(WINDOW[0], WINDOW[1], 0).ok
        mismatched = contribute(WINDOW[0] + 60, WINDOW[1], 1)
        assert not mismatched.ok and "same time window" in mismatched.error


class TestSettlePathAuction:
    def test_all_legs_awarded_and_escrow_conserved(self, world):
        path_auction = open_path_auction(world, reserve=20)
        ledger = world["ledger"]
        people = []
        escrows = {}
        for name, bw, price in (("alice", 400, 90), ("bob", 400, 70), ("carol", 400, 50)):
            account, coin = make_bidder(world, name)
            placed = place_path_bid(world, account, coin, path_auction, bw, price)
            assert placed.ok, placed.error
            escrows[account.address] = placed.returns[0]["escrow_mist"]
            people.append(account)
        effects = settle(world, path_auction)
        assert effects.ok, effects.error
        result = effects.returns[0]
        # carol's losing 50 supports the price on both legs.
        assert result["clearing_prices_micromist"] == [50, 50]
        assert [w["bidder"] for w in result["winners"]] == [
            people[0].address,
            people[1].address,
        ]
        per_leg = -(-400 * DURATION * 50 // MICROMIST)  # 12 MIST
        for winner in result["winners"]:
            assert winner["paid_mist"] == 2 * per_leg
            assert len(winner["assets"]) == 2  # one piece per leg
        # Escrow conservation: paid + refunds == escrows, to the MIST.
        paid = sum(w["paid_mist"] for w in result["winners"])
        refunds = sum(w["refund_mist"] for w in result["winners"]) + sum(
            l["refund_mist"] for l in result["losers"]
        )
        assert paid + refunds == sum(escrows.values())
        # Each leg's seller got exactly that leg's proceeds.
        for leg in result["legs"]:
            assert leg["proceeds_mist"] == 2 * per_leg
        assert coin_balance(ledger, people[2].address) == FUNDING  # loser whole
        # Winners paid the path clearing price, got the surplus back.
        assert coin_balance(ledger, people[0].address) == FUNDING - 2 * per_leg
        assert coin_balance(ledger, people[1].address) == FUNDING - 2 * per_leg
        # Unawarded 200 kbps per leg reverted to posted listings.
        assert all(leg["listing"] is not None for leg in result["legs"])

    def test_partial_winner_is_fully_refunded(self, world):
        """A bid that fits one leg but not the other wins nothing, pays nothing."""
        path_auction = open_path_auction(world, bandwidths=(1000, 1000))
        people = []
        for name, bw, price in (("big", 900, 90), ("small", 300, 70)):
            account, coin = make_bidder(world, name)
            assert place_path_bid(world, account, coin, path_auction, bw, price).ok
            people.append(account)
        # Leg 1 lost headroom: only 400 kbps sellable there.
        effects = settle(world, path_auction, supplies_kbps=[1000, 400])
        assert effects.ok, effects.error
        result = effects.returns[0]
        assert [w["bidder"] for w in result["winners"]] == [people[1].address]
        (lost,) = result["losers"]
        assert lost["bidder"] == people[0].address
        assert lost["leg"] == 1 and lost["reason"] == "supply exhausted"
        assert coin_balance(world["ledger"], people[0].address) == FUNDING

    def test_nothing_clears_full_refunds_and_relisting(self, world):
        path_auction = open_path_auction(world, reserve=20)
        account, coin = make_bidder(world, "cheap")
        assert place_path_bid(world, account, coin, path_auction, 400, 90).ok
        # Both legs lost all headroom at settle time.
        effects = settle(world, path_auction, supplies_kbps=[0, 0])
        assert effects.ok, effects.error
        result = effects.returns[0]
        assert result["winners"] == [] and result["proceeds_mist"] == 0
        assert coin_balance(world["ledger"], account.address) == FUNDING
        assert all(leg["listing"] is not None for leg in result["legs"])

    def test_only_leg_sellers_or_creator_settle(self, world):
        path_auction = open_path_auction(world)
        outsider, _ = make_bidder(world, "outsider")
        effects = settle(world, path_auction, sender=outsider)
        assert not effects.ok and "may settle" in effects.error

    def test_settle_emits_conservation_checkable_event(self, world):
        path_auction = open_path_auction(world)
        ledger = world["ledger"]
        for name, bw, price in (("a", 500, 80), ("b", 500, 60), ("c", 300, 40)):
            account, coin = make_bidder(world, name)
            assert place_path_bid(world, account, coin, path_auction, bw, price).ok
        assert settle(world, path_auction).ok
        placed = ledger.events_since(0, "PathBidPlaced")
        settled = ledger.events_since(0, "PathAuctionSettled")
        assert len(settled) == 1
        payload = settled[0].payload
        escrow_total = sum(e.payload["escrow_mist"] for e in placed)
        paid = sum(w["paid_mist"] for w in payload["winners"])
        refunds = sum(w["refund_mist"] for w in payload["winners"]) + sum(
            l["refund_mist"] for l in payload["losers"]
        )
        assert paid + refunds == escrow_total
        assert payload["proceeds_mist"] == paid
