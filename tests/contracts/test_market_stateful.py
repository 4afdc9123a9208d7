"""Stateful property test: market invariants under random operation sequences.

Hypothesis drives random interleavings of buys (all four split variants),
cancellations, re-listings and whole auctions — an *n*-leg auction is opened
(*n* = 1 through ``create_auction``, *n* in {2, 4} through
``create_path_auction`` + ``contribute_path_leg``), bid into by three funded
accounts and a leg seller (below reserve, over the share cap, leaving a
sub-minimum fragment, wider than a leg) and settled at a supply clamped per
leg — against one marketplace, checking after every step that:

* **volume conservation** — the total kbps-seconds across assets in auction
  custody, listed assets and owned assets only changes when a seller issues;
* **money conservation** — coin balances plus the escrow of every live
  ``market::Bid`` / ``market::PathBid`` equal what was minted: MIST only moves
  between coins and escrow, never appears or vanishes;
* **custody** — every listed asset (a settlement's reserve-priced remainder
  included) is owned by the marketplace, every listing points at an existing
  asset;
* **no orphan** — no bid object outlives its auction, and an open auction's
  book names exactly the live bids placed into it.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.contracts.asset import ASSET_TYPE, REQUEST_TYPE, AssetContract, asset_units
from repro.contracts.coin import CoinContract, coin_balance
from repro.contracts.market import (
    AUCTION_TYPE,
    BID_TYPE,
    LISTING_TYPE,
    PATH_AUCTION_TYPE,
    PATH_BID_TYPE,
    MarketContract,
)
from repro.controlplane.pki import CpPki
from repro.ledger.accounts import COIN_TYPE, Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.objects import Ownership
from repro.ledger.transactions import Command, Transaction
from repro.scion.addresses import IsdAs

GRANULARITY = 60
ASSET_START = 0
ASSET_EXPIRY = 3600
ASSET_BW = 1_000_000
MIN_BW = 100
# Auctioned rectangles: one window, a narrower leg on every second path leg.
AUCTION_EXPIRY = 600
LEG_BW = (1_000, 800, 1_000, 800)
RESERVE = 50


class MarketMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        rng = random.Random(99)
        pki = CpPki(seed=99)
        self.ledger = Ledger()
        self.ledger.register_contract(CoinContract())
        self.ledger.register_contract(AssetContract(pki))
        self.ledger.register_contract(MarketContract())
        self.seller = Account.generate(rng, "seller")
        self.buyer = Account.generate(rng, "buyer")
        self.marketplace = self._run(
            self.seller, "market", "create_marketplace"
        ).returns[0]["marketplace"]
        # Two ASes sell: path legs alternate between them.
        self.sellers = [self.seller, Account.generate(rng, "second-seller")]
        self.tokens = {}
        for asn, seller in enumerate(self.sellers, start=9):
            cert = pki.issue_certificate(IsdAs(1, asn), seller.signing_key.public)
            proof = seller.signing_key.sign(seller.address.encode(), rng)
            self.tokens[seller.address] = self._run(
                seller, "asset", "register_as",
                certificate=cert, commitment=proof.commitment, response=proof.response,
            ).returns[0]["token"]
            self._run(seller, "market", "register_seller", marketplace=self.marketplace)
        # Three funded bidders (the buyer is the first) and a funded leg seller.
        self.bidders = [
            self.buyer, Account.generate(rng, "bidder-b"), Account.generate(rng, "bidder-c"),
            self.seller,
        ]
        self.coins = {
            account.address: self._run(
                account, "coin", "mint", amount=sui_to_mist(1000)
            ).returns[0]["coin"]
            for account in self.bidders
        }
        self.coin = self.coins[self.buyer.address]
        token = self.tokens[self.seller.address]
        asset = self._run(
            self.seller, "asset", "issue",
            token=token, bandwidth_kbps=ASSET_BW, start=ASSET_START,
            expiry=ASSET_EXPIRY, interface=1, is_ingress=True,
            granularity=GRANULARITY, min_bandwidth_kbps=MIN_BW,
        ).returns[0]["asset"]
        self._run(
            self.seller, "market", "create_listing",
            marketplace=self.marketplace, asset=asset, price_micromist_per_unit=50,
        )
        self.issued_volume = ASSET_BW * (ASSET_EXPIRY - ASSET_START)
        self.minted = sum(
            coin_balance(self.ledger, account.address) for account in self.bidders
        )
        # Open auctions: id -> (legs, sellers in leg order).
        self.auctions = {}

    # -- helpers ---------------------------------------------------------------

    def _run(self, account, contract, function, **args):
        effects = self.ledger.execute(
            Transaction(account.address, [Command(contract, function, args)])
        )
        assert effects.ok, f"{function}: {effects.error}"
        return effects

    def _try(self, account, contract, function, **args):
        return self.ledger.execute(
            Transaction(account.address, [Command(contract, function, args)])
        )

    def _objects(self, *type_tags):
        return [
            obj for obj in self.ledger.objects.values() if obj.type_tag in type_tags
        ]

    def _listings(self):
        return self._objects(LISTING_TYPE)

    def _issue(self, seller, interface, bandwidth_kbps) -> str:
        """A fresh asset over the auction window; issuing is the one way volume grows."""
        asset = self._run(
            seller, "asset", "issue",
            token=self.tokens[seller.address], bandwidth_kbps=bandwidth_kbps,
            start=ASSET_START, expiry=AUCTION_EXPIRY, interface=interface,
            is_ingress=True, granularity=GRANULARITY, min_bandwidth_kbps=MIN_BW,
        ).returns[0]["asset"]
        self.issued_volume += bandwidth_kbps * (AUCTION_EXPIRY - ASSET_START)
        return asset

    # -- rules -----------------------------------------------------------------

    @rule(
        start_slot=st.integers(0, 58),
        slots=st.integers(1, 10),
        bw=st.sampled_from([100, 4_000, 50_000, 999_900]),
    )
    def buy_rectangle(self, start_slot, slots, bw):
        start = ASSET_START + start_slot * GRANULARITY
        expiry = min(start + slots * GRANULARITY, ASSET_EXPIRY)
        for listing in self._listings():
            asset = self.ledger.objects.get(listing.payload["asset"])
            if asset is None:
                continue
            payload = asset.payload
            if not (payload["start"] <= start and expiry <= payload["expiry"]):
                continue
            if payload["bandwidth_kbps"] < bw:
                continue
            remainder = payload["bandwidth_kbps"] - bw
            if 0 < remainder < MIN_BW:
                continue
            self._try(
                self.buyer, "market", "buy",
                marketplace=self.marketplace, listing=listing.object_id,
                start=start, expiry=expiry, bandwidth_kbps=bw, payment=self.coin,
            )
            return

    @rule()
    def cancel_and_relist(self):
        listings = self._listings()
        if not listings:
            return
        listing = listings[0]
        seller = next(
            account for account in self.sellers
            if account.address == listing.payload["seller"]
        )
        cancelled = self._try(
            seller, "market", "cancel_listing",
            marketplace=self.marketplace, listing=listing.object_id,
        )
        if not cancelled.ok:
            return
        self._run(
            seller, "market", "create_listing",
            marketplace=self.marketplace, asset=cancelled.returns[0]["asset"],
            price_micromist_per_unit=75,
        )

    @rule()
    def buyer_fuses_adjacent_assets(self):
        owned = self.ledger.objects_owned_by(self.buyer.address, ASSET_TYPE)
        for a in owned:
            for b in owned:
                if a is b:
                    continue
                same = all(
                    a.payload[k] == b.payload[k]
                    for k in ("interface", "is_ingress", "bandwidth_kbps")
                )
                if same and a.payload["expiry"] == b.payload["start"]:
                    self._try(
                        self.buyer, "asset", "fuse_time",
                        first=a.object_id, second=b.object_id,
                    )
                    return

    @precondition(lambda self: len(self.auctions) < 2)
    @rule(legs=st.sampled_from([1, 2, 4]), share_cap=st.sampled_from([None, 600]))
    def open_auction(self, legs, share_cap):
        sellers = [self.sellers[index % 2] for index in range(legs)]
        if legs == 1:
            opened = self._run(
                sellers[0], "market", "create_auction",
                marketplace=self.marketplace,
                asset=self._issue(sellers[0], 10, LEG_BW[0]),
                reserve_micromist_per_unit=RESERVE, share_cap_kbps=share_cap,
            ).returns[0]["auction"]
        else:
            opened = self._run(
                sellers[0], "market", "create_path_auction",
                marketplace=self.marketplace, num_legs=legs,
            ).returns[0]["path_auction"]
            for index, seller in enumerate(sellers):
                self._run(
                    seller, "market", "contribute_path_leg",
                    marketplace=self.marketplace, path_auction=opened, leg_index=index,
                    asset=self._issue(seller, 10 + index, LEG_BW[index]),
                    reserve_micromist_per_unit=RESERVE + index, share_cap_kbps=share_cap,
                )
        self.auctions[opened] = (legs, sellers)

    @precondition(lambda self: self.auctions)
    @rule(
        which=st.integers(0, 1),
        bids=st.lists(
            st.tuples(
                st.integers(0, 3),  # 3 is a leg seller: always refused
                # below the asset minimum, three that fit, one stranding a
                # 50 kbps fragment of a 1000 kbps leg (and wider than an
                # 800 kbps one), one wider than any leg
                st.sampled_from([50, 100, 300, 450, 950, 1_200]),
                st.sampled_from([10, 50, 60, 70, 90]),  # 10: below every reserve
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def place_bids(self, which, bids):
        auction = sorted(self.auctions)[which % len(self.auctions)]
        legs, _ = self.auctions[auction]
        function, key = (
            ("place_bid", "auction") if legs == 1 else ("place_path_bid", "path_auction")
        )
        for bidder, bw, price in bids:
            account = self.bidders[bidder]
            placed = self._try(
                account, "market", function,
                **{"marketplace": self.marketplace, key: auction},
                bandwidth_kbps=bw, price_micromist_per_unit=price,
                payment=self.coins[account.address],
            )
            fits = MIN_BW <= bw <= min(LEG_BW[:legs])
            assert placed.ok == (fits and bidder != 3), placed.error

    @precondition(lambda self: self.auctions)
    @rule(which=st.integers(0, 1), clamp=st.sampled_from([None, 0, 500, 900, 1_000]))
    def settle(self, which, clamp):
        auction = sorted(self.auctions)[which % len(self.auctions)]
        legs, sellers = self.auctions.pop(auction)
        supplies = (
            None if clamp is None else [min(clamp, width) for width in LEG_BW[:legs]]
        )
        if legs == 1:
            settled = self._run(
                sellers[0], "market", "settle_auction",
                marketplace=self.marketplace, auction=auction,
                supply_kbps=None if supplies is None else supplies[0],
            ).returns[0]
            relisted = [settled["listing"]]
        else:
            settled = self._run(
                sellers[-1], "market", "settle_path_auction",
                marketplace=self.marketplace, path_auction=auction,
                supplies_kbps=supplies,
            ).returns[0]
            relisted = [leg["listing"] for leg in settled["legs"]]
        # one escrow in, one payment or refund out, per bid
        assert settled["proceeds_mist"] == sum(
            winner["paid_mist"] for winner in settled["winners"]
        )
        for listing in filter(None, relisted):
            assert self.ledger.objects[listing].type_tag == LISTING_TYPE

    # -- invariants --------------------------------------------------------------

    @invariant()
    def volume_is_conserved(self):
        if not hasattr(self, "ledger"):
            return
        # custody of an open auction, listed or owned: every asset counts
        total = sum(asset_units(obj.payload) for obj in self._objects(ASSET_TYPE))
        assert total == self.issued_volume

    @invariant()
    def money_is_conserved(self):
        if not hasattr(self, "ledger"):
            return
        coins = sum(obj.payload["balance"] for obj in self._objects(COIN_TYPE))
        escrow = sum(
            obj.payload["escrow_mist"] for obj in self._objects(BID_TYPE, PATH_BID_TYPE)
        )
        assert coins + escrow == self.minted

    @invariant()
    def no_bid_outlives_its_auction(self):
        if not hasattr(self, "ledger"):
            return
        books = {
            auction.object_id: set(auction.payload["bids"])
            for auction in self._objects(AUCTION_TYPE, PATH_AUCTION_TYPE)
        }
        assert set(books) == set(self.auctions)
        for bid in self._objects(BID_TYPE, PATH_BID_TYPE):
            auction = bid.payload.get("auction", bid.payload.get("path_auction"))
            assert bid.object_id in books.get(auction, ()), "orphaned bid object"
            assert bid.owner == self.marketplace
            books[auction].discard(bid.object_id)
        assert not any(books.values()), "an auction's book names a missing bid"

    @invariant()
    def listings_are_consistent(self):
        if not hasattr(self, "ledger"):
            return
        for listing in self._listings():
            asset = self.ledger.objects.get(listing.payload["asset"])
            assert asset is not None, "listing points at a missing asset"
            assert asset.ownership is Ownership.OWNED
            assert asset.owner == self.marketplace


MarketMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=16, deadline=None
)
TestMarketStateful = MarketMachine.TestCase
