"""The marketplace contract: decentralized trading of bandwidth assets.

The marketplace is a *shared* object (anyone may interact with it, which is
why purchases go through consensus, §6.1).  ASes list assets at a posted
price; buyers purchase any sub-rectangle (time × bandwidth) of a listing,
and the contract splits the asset accordingly — the remainders stay listed.

Prices are linear in reserved volume: ``price_micromist_per_unit`` is the
posted price per kbps-second, so a purchase costs::

    ceil(units(bw, duration) * price / 1e6)  MIST

Payment flows buyer-coin -> seller-coin inside the same transaction, so an
atomic multi-hop purchase either pays every AS or nobody (C1/atomicity).

Every listing state change emits an event carrying the full listing
snapshot — ``Listed`` (new listing), ``Relisted`` (a sale remainder kept
on the market under a fresh listing), ``Delisted`` (seller cancel),
``Sold`` (with ``listing_closed`` or the surviving listing's ``remaining``
rectangle), and ``Reclaimed`` (the provenance marker preceding a listing
whose supply was reclaimed from a no-show reservation) — so an off-chain
:class:`~repro.marketdata.MarketIndexer` can track the market
incrementally and never needs to rescan the object store.

Beyond posted-price listings, the contract runs sealed-bid auctions.  An
auction is a list of *legs* — auctioned rectangles in marketplace custody,
each with its seller, reserve price and share cap — a book of escrowed bids
and one settlement; bids escrow their maximum payment at placement, and
settlement re-runs the clearing rule on-chain — the exact pure function the
off-chain preview uses — carves every leg asset for every winner, pays each
leg's seller at that leg's clearing price, and refunds every loser (and
every winner's escrow surplus) *inside the same transaction*, so either
the whole settlement lands or no money moves.  Unawarded bandwidth reverts
to a posted listing at the leg's reserve price, and escrow is conserved
exactly: ``sum(paid) + sum(refunds) == sum(escrows)``.  Two protocols share
that one escrow (``_escrow_bid``) and that one settlement (``_settle``):

* the **uniform-price window auction** (``create_auction`` / ``place_bid``
  / ``settle_auction``, ``docs/auctions.md``) is the **one-leg case**: one
  asset window, cleared by
  :func:`repro.admission.auction.uniform_price_clearing`;
* the **combinatorial path auction** (``create_path_auction`` /
  ``contribute_path_leg`` / ``place_path_bid`` / ``settle_path_auction``,
  ``docs/paths.md``): every AS on the path contributes one leg, a bidder
  escrows **one** payment covering every leg, and
  :func:`repro.pathadm.auction.combinatorial_path_clearing` awards all legs
  or none per bid.
"""

from __future__ import annotations

from repro.admission.auction import Bid, uniform_price_clearing
from repro.contracts.asset import (
    ASSET_TYPE,
    asset_units,
    split_bandwidth_inner,
    split_time_inner,
)
from repro.contracts.framework import CallContext, Contract
from repro.ledger.accounts import COIN_TYPE
from repro.ledger.objects import Ownership
from repro.pathadm.auction import (
    LegSupply,
    LostPathBid,
    PathClearingOutcome,
    combinatorial_path_clearing,
    path_escrow_mist,
)

MARKETPLACE_TYPE = "market::Marketplace"
LISTING_TYPE = "market::Listing"
SELLER_CAP_TYPE = "market::SellerCap"
AUCTION_TYPE = "market::Auction"
BID_TYPE = "market::Bid"
PATH_AUCTION_TYPE = "market::PathAuction"
PATH_BID_TYPE = "market::PathBid"

MICROMIST = 1_000_000


class MarketContract(Contract):
    name = "market"

    # -- setup ----------------------------------------------------------------

    def create_marketplace(self, ctx: CallContext) -> dict:
        marketplace = ctx.create_object(
            MARKETPLACE_TYPE,
            {"creator": ctx.sender, "sellers": {}, "listing_count": 0},
            ownership=Ownership.SHARED,
        )
        return {"marketplace": marketplace.object_id}

    def register_seller(self, ctx: CallContext, marketplace: str) -> dict:
        """Register the sender as a seller; returns a capability object."""
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        ctx.require(
            ctx.sender not in market.payload["sellers"], "seller already registered"
        )
        market.payload["sellers"][ctx.sender] = True
        ctx.mutate(market)
        cap = ctx.create_object(SELLER_CAP_TYPE, {"marketplace": marketplace})
        return {"cap": cap.object_id}

    # -- listing ----------------------------------------------------------------

    def create_listing(
        self,
        ctx: CallContext,
        marketplace: str,
        asset: str,
        price_micromist_per_unit: int,
        provenance: dict | None = None,
    ) -> dict:
        """List an asset for sale; the marketplace takes custody of it.

        ``provenance`` marks a listing whose bandwidth was *reclaimed*
        from a no-show reservation (``{"res_id", "original_holder",
        "reclaimed_kbps", ...}``): a ``Reclaimed`` event carrying the
        listing snapshot plus the provenance lands immediately before the
        ``Listed`` event, so an off-chain indexer can attribute the
        supply without reading the object store.  The seller is the
        listing AS either way — a later sale pays the AS, never the
        original holder (whose asset the reclamation did not touch).
        """
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        ctx.require(ctx.sender in market.payload["sellers"], "seller not registered")
        ctx.require(price_micromist_per_unit > 0, "price must be positive")
        asset_object = ctx.take_owned(asset, ASSET_TYPE)
        ctx.transfer(asset_object, marketplace)
        listing = ctx.create_object(
            LISTING_TYPE,
            {
                "marketplace": marketplace,
                "asset": asset,
                "seller": ctx.sender,
                "price_micromist_per_unit": int(price_micromist_per_unit),
            },
            owner=marketplace,
        )
        market.payload["listing_count"] += 1
        ctx.mutate(market)
        if provenance is not None:
            ctx.emit(
                "Reclaimed",
                {**_listing_snapshot(listing, asset_object), "provenance": dict(provenance)},
            )
        ctx.emit("Listed", _listing_snapshot(listing, asset_object))
        return {"listing": listing.object_id}

    def cancel_listing(self, ctx: CallContext, marketplace: str, listing: str) -> dict:
        """Seller takes an unsold asset back off the market."""
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        listing_object = ctx.take_owned(listing, LISTING_TYPE, owner=marketplace)
        ctx.require(listing_object.payload["seller"] == ctx.sender, "not the seller")
        asset_object = ctx.take_owned(
            listing_object.payload["asset"], ASSET_TYPE, owner=marketplace
        )
        ctx.transfer(asset_object, ctx.sender)
        ctx.delete_object(listing_object)
        market.payload["listing_count"] -= 1
        ctx.mutate(market)
        ctx.emit(
            "Delisted",
            {
                "marketplace": marketplace,
                "listing": listing,
                "asset": asset_object.object_id,
            },
        )
        return {"asset": asset_object.object_id}

    # -- buying -------------------------------------------------------------------

    def buy(
        self,
        ctx: CallContext,
        marketplace: str,
        listing: str,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        payment: str,
    ) -> dict:
        """Buy a (time × bandwidth) sub-rectangle of a listed asset.

        Splits the listed asset as needed (worst case: two time splits plus
        one bandwidth split); remainders are re-listed at the same unit
        price.  The bought piece transfers to the buyer, the payment to the
        seller.
        """
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        listing_object = ctx.take_owned(listing, LISTING_TYPE, owner=marketplace)
        asset_object = ctx.take_owned(
            listing_object.payload["asset"], ASSET_TYPE, owner=marketplace
        )
        payload = asset_object.payload
        ctx.require(
            payload["start"] <= start < expiry <= payload["expiry"],
            "requested interval outside the listed asset",
        )
        ctx.require(
            0 < bandwidth_kbps <= payload["bandwidth_kbps"],
            "requested bandwidth exceeds the listed asset",
        )

        seller = listing_object.payload["seller"]
        unit_price = listing_object.payload["price_micromist_per_unit"]

        # `target` is the piece being carved towards the purchase.  The
        # original asset stays bound to the original listing as long as it
        # keeps a remainder; every other remainder gets a fresh listing.
        target = asset_object
        if start > payload["start"]:
            # Head remainder [asset.start, start) stays with the original
            # asset (and its listing); the returned piece continues.
            target = split_time_inner(ctx, target, start, new_owner=marketplace)
        if expiry < target.payload["expiry"]:
            # split keeps [*, expiry) in `target`, returns the tail.
            tail = split_time_inner(ctx, target, expiry, new_owner=marketplace)
            self._relist(ctx, market, tail, seller, unit_price, "Relisted")
        if bandwidth_kbps < target.payload["bandwidth_kbps"]:
            bought = split_bandwidth_inner(
                ctx, target, bandwidth_kbps, new_owner=marketplace
            )
            # `target` keeps the bandwidth remainder.
            if target.object_id != asset_object.object_id:
                self._relist(ctx, market, target, seller, unit_price, "Relisted")
        else:
            bought = target

        if bought.object_id == asset_object.object_id:
            # The purchase consumed the original asset: the listing dies.
            ctx.delete_object(listing_object)
            market.payload["listing_count"] -= 1

        # Pricing and payment (ceil division).
        price_mist = -(-asset_units(bought.payload) * unit_price // MICROMIST)
        coin = ctx.take_owned(payment, COIN_TYPE)
        ctx.require(coin.payload["balance"] >= price_mist, "insufficient payment")
        coin.payload["balance"] -= price_mist
        ctx.mutate(coin)
        self._pay(ctx, seller, price_mist)

        ctx.transfer(bought, ctx.sender)
        ctx.mutate(market)
        listing_closed = bought.object_id == asset_object.object_id
        ctx.emit(
            "Sold",
            {
                "marketplace": marketplace,
                "listing": listing,
                "asset": bought.object_id,
                "price_mist": int(price_mist),
                "buyer": ctx.sender,
                "listing_closed": listing_closed,
                # The rectangle the original listing keeps (its asset was
                # mutated by the splits above) — what an indexer needs to
                # shrink the listing without reading the object store.
                "remaining": None
                if listing_closed
                else {
                    "bandwidth_kbps": asset_object.payload["bandwidth_kbps"],
                    "start": asset_object.payload["start"],
                    "expiry": asset_object.payload["expiry"],
                },
            },
        )
        return {"asset": bought.object_id, "price_mist": int(price_mist)}

    # -- auctions -----------------------------------------------------------------
    #
    # Legs, a book of escrowed bids, one settlement (module docstring): `_book`
    # reads both object types as the same legs, and `_escrow_bid` / `_settle`
    # are the only bodies either protocol runs.

    def create_auction(
        self,
        ctx: CallContext,
        marketplace: str,
        asset: str,
        reserve_micromist_per_unit: int,
        share_cap_kbps: int | None = None,
    ) -> dict:
        """Open a sealed-bid uniform-price auction for a whole asset window.

        The marketplace takes custody of the asset (exactly like a
        listing); bids arrive via :meth:`place_bid` and the seller closes
        the book with :meth:`settle_auction`.  ``reserve_micromist_per_unit``
        floors the clearing price (the AS seeds it with the
        scarcity-adjusted posted quote) and ``share_cap_kbps`` optionally
        caps any single bidder's total award (the proportional-share rule).
        """
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        self._may_offer(ctx, market, reserve_micromist_per_unit, share_cap_kbps)
        asset_object = ctx.take_owned(asset, ASSET_TYPE)
        ctx.transfer(asset_object, marketplace)
        leg = {
            "asset": asset,
            "seller": ctx.sender,
            "reserve_micromist_per_unit": reserve_micromist_per_unit,
            "share_cap_kbps": share_cap_kbps,
        }
        auction = ctx.create_object(
            AUCTION_TYPE,
            {"marketplace": marketplace, **leg, "bids": []},
            owner=marketplace,
        )
        ctx.emit(
            "AuctionOpened",
            {
                "marketplace": marketplace,
                "auction": auction.object_id,
                **leg,
                **_rectangle(asset_object.payload),
            },
        )
        return {"auction": auction.object_id}

    def place_bid(
        self,
        ctx: CallContext,
        marketplace: str,
        auction: str,
        bandwidth_kbps: int,
        price_micromist_per_unit: int,
        payment: str,
    ) -> dict:
        """Place one sealed bid, escrowing the maximum payment.

        The escrow is ``ceil(bandwidth * duration * price / 1e6)`` MIST —
        what the bid would cost if it cleared at its own price.  Settlement
        refunds the difference to the clearing price (winners) or the whole
        escrow (losers) atomically; there is no way to withdraw a bid
        early, which is what makes the bids *sealed* commitments.  The
        seller may not bid in their own auction (a riskless shill bid
        would otherwise inflate the uniform clearing price).
        """
        return self._escrow_bid(
            ctx, marketplace, auction, AUCTION_TYPE,
            bandwidth_kbps, price_micromist_per_unit, payment,
        )

    def settle_auction(
        self,
        ctx: CallContext,
        marketplace: str,
        auction: str,
        supply_kbps: int | None = None,
    ) -> dict:
        """Clear the book, carve the asset, pay the seller, refund the rest.

        Only the seller may settle.  ``supply_kbps`` lets the seller clamp
        the sellable bandwidth below the auctioned amount (the admission
        layer reports lost calendar headroom at settle time); it can never
        exceed the asset's bandwidth.  The clearing rule is
        :func:`repro.admission.auction.uniform_price_clearing` — byte-for-
        byte the function hosts use to preview the outcome — so on- and
        off-chain clearing can never disagree.  The effects are
        :meth:`_settle`'s for one leg, reported without the leg dimension:
        a winner holds one ``asset``, the auction has one clearing price,
        one proceeds coin and at most one remainder ``listing``.
        """
        (leg,), settled = self._settle(
            ctx, marketplace, auction, AUCTION_TYPE,
            None if supply_kbps is None else [supply_kbps],
        )
        for winner in settled["winners"]:
            winner["asset"] = winner.pop("assets")[0]
        for loser in settled["losers"]:
            del loser["leg"]
        clearing_price = settled["clearing_prices_micromist"][0]
        awarded_kbps = sum(winner["bandwidth_kbps"] for winner in settled["winners"])
        listing = settled["legs"][0]["listing"]
        ctx.emit(
            "AuctionSettled",
            {
                "marketplace": marketplace,
                "auction": auction,
                "asset": leg["asset"],
                "seller": ctx.sender,
                "clearing_price_micromist": clearing_price,
                "reserve_micromist_per_unit": leg["reserve_micromist_per_unit"],
                "supply_kbps": settled["supplies_kbps"][0],
                "awarded_kbps": awarded_kbps,
                "winners": settled["winners"],
                "losers": settled["losers"],
                "listing": listing,
                "proceeds_mist": settled["proceeds_mist"],
            },
        )
        return {
            "clearing_price_micromist": clearing_price,
            "awarded_kbps": awarded_kbps,
            "proceeds_mist": settled["proceeds_mist"],
            "listing": listing,
            "winners": settled["winners"],
            "losers": settled["losers"],
        }

    # -- path auctions -------------------------------------------------------------

    def create_path_auction(
        self, ctx: CallContext, marketplace: str, num_legs: int
    ) -> dict:
        """Open the shell of a combinatorial path auction.

        The creator (any registered seller — typically the first AS on the
        path) declares how many legs the path has; each leg's AS then
        contributes its asset via :meth:`contribute_path_leg`.  Bidding
        opens only once every leg is contributed.
        """
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        ctx.require(ctx.sender in market.payload["sellers"], "seller not registered")
        ctx.require(num_legs > 0, "a path auction needs at least one leg")
        path_auction = ctx.create_object(
            PATH_AUCTION_TYPE,
            {
                "marketplace": marketplace,
                "creator": ctx.sender,
                "legs": [None] * num_legs,
                "bids": [],
            },
            owner=marketplace,
        )
        ctx.emit(
            "PathAuctionOpened",
            {
                "marketplace": marketplace,
                "path_auction": path_auction.object_id,
                "creator": ctx.sender,
                "num_legs": num_legs,
            },
        )
        return {"path_auction": path_auction.object_id}

    def contribute_path_leg(
        self,
        ctx: CallContext,
        marketplace: str,
        path_auction: str,
        leg_index: int,
        asset: str,
        reserve_micromist_per_unit: int,
        share_cap_kbps: int | None = None,
    ) -> dict:
        """One AS places its leg asset into the path auction's custody.

        The sender becomes that leg's seller: settlement pays it the leg's
        proceeds and relists the leg's unawarded remainder under its name.
        Every leg must cover the *same* time window (a path reservation is
        one window on every hop); the first contribution fixes it.
        """
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        self._may_offer(ctx, market, reserve_micromist_per_unit, share_cap_kbps)
        auction_object = ctx.take_owned(
            path_auction, PATH_AUCTION_TYPE, owner=marketplace
        )
        legs = auction_object.payload["legs"]
        ctx.require(0 <= leg_index < len(legs), "leg index out of range")
        ctx.require(legs[leg_index] is None, "leg already contributed")
        ctx.require(not auction_object.payload["bids"], "bidding already open")
        asset_object = ctx.take_owned(asset, ASSET_TYPE)
        payload = asset_object.payload
        for other in legs:
            if other is not None:
                ctx.require(
                    other["start"] == payload["start"]
                    and other["expiry"] == payload["expiry"],
                    "every leg must cover the same time window",
                )
                break
        ctx.transfer(asset_object, marketplace)
        legs[leg_index] = {
            "asset": asset,
            "seller": ctx.sender,
            "reserve_micromist_per_unit": reserve_micromist_per_unit,
            "share_cap_kbps": share_cap_kbps,
            **_rectangle(payload),
        }
        ctx.mutate(auction_object)
        ctx.emit(
            "PathLegContributed",
            {
                "marketplace": marketplace,
                "path_auction": path_auction,
                "leg_index": leg_index,
                "legs_missing": sum(1 for leg in legs if leg is None),
                **legs[leg_index],
            },
        )
        return {"leg_index": leg_index}

    def place_path_bid(
        self,
        ctx: CallContext,
        marketplace: str,
        path_auction: str,
        bandwidth_kbps: int,
        price_micromist_per_unit: int,
        payment: str,
    ) -> dict:
        """One sealed combinatorial bid: the same bandwidth on every leg.

        ``price_micromist_per_unit`` is the maximum unit price **per
        leg**; the escrow is the worst case on every leg —
        ``num_legs * ceil(bandwidth * duration * price / 1e6)`` MIST
        (:func:`repro.pathadm.auction.path_escrow_mist`).  The bid wins on
        all legs or none; no leg seller may bid.
        """
        return self._escrow_bid(
            ctx, marketplace, path_auction, PATH_AUCTION_TYPE,
            bandwidth_kbps, price_micromist_per_unit, payment,
        )

    def settle_path_auction(
        self,
        ctx: CallContext,
        marketplace: str,
        path_auction: str,
        supplies_kbps: list[int] | None = None,
    ) -> dict:
        """Clear the path book all-or-nothing and settle every leg atomically.

        Any leg seller (or the creator) may settle; ``supplies_kbps``
        optionally clamps each leg's sellable bandwidth to its live
        calendar headroom.  The clearing rule is
        :func:`repro.pathadm.auction.combinatorial_path_clearing` — the
        same pure function hosts use to preview — composing the per-leg
        uniform-price rule with the all-legs-or-nothing eviction pass.
        The effects are :meth:`_settle`'s: a path winner holds a piece of
        **every** leg asset (``assets``, in leg order) and pays the sum of
        the per-leg clearing prices; a loser is told the first ``leg`` that
        rejected it.
        """
        legs, settled = self._settle(
            ctx, marketplace, path_auction, PATH_AUCTION_TYPE, supplies_kbps
        )
        ctx.emit(
            "PathAuctionSettled",
            {
                "marketplace": marketplace,
                "path_auction": path_auction,
                "num_legs": len(legs),
                **settled,
            },
        )
        return settled

    # -- internals ------------------------------------------------------------------

    def _may_offer(self, ctx: CallContext, market, reserve: int, share_cap_kbps) -> None:
        """Who may put a rectangle up for auction, and on which terms."""
        ctx.require(ctx.sender in market.payload["sellers"], "seller not registered")
        ctx.require(reserve > 0, "reserve price must be positive")
        ctx.require(
            share_cap_kbps is None or share_cap_kbps > 0,
            "share cap must be positive when given",
        )

    def _book(self, ctx: CallContext, marketplace: str, auction: str, auction_type: str):
        """``(auction object, legs)`` of an auction that is open for bids.

        A leg names its ``asset``, ``seller``, ``reserve_micromist_per_unit``
        and ``share_cap_kbps`` beside the auctioned rectangle.  A path
        auction stores exactly that per contributed leg; a window auction
        *is* its one leg, the rectangle read off the asset in custody.
        """
        auction_object = ctx.take_owned(auction, auction_type, owner=marketplace)
        if auction_type == AUCTION_TYPE:
            asset_object = ctx.take_owned(
                auction_object.payload["asset"], ASSET_TYPE, owner=marketplace
            )
            return auction_object, [{**asset_object.payload, **auction_object.payload}]
        legs = auction_object.payload["legs"]
        ctx.require(all(leg is not None for leg in legs), "path not fully contributed")
        return auction_object, legs

    def _escrow_bid(
        self,
        ctx: CallContext,
        marketplace: str,
        auction: str,
        auction_type: str,
        bandwidth_kbps: int,
        price_micromist_per_unit: int,
        payment: str,
    ) -> dict:
        """Move a bid's worst-case payment out of ``payment`` into a bid object
        in the auction's book: ``bandwidth_kbps`` on every leg, at up to
        ``price_micromist_per_unit`` a leg."""
        key, bid_type, placed_event, _ = _PROTOCOLS[auction_type]
        ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        auction_object, legs = self._book(ctx, marketplace, auction, auction_type)
        ctx.require(
            all(leg["seller"] != ctx.sender for leg in legs),
            "a leg seller cannot bid in their own auction",
        )
        ctx.require(price_micromist_per_unit > 0, "bid price must be positive")
        ctx.require(
            max(leg["min_bandwidth_kbps"] for leg in legs)
            <= bandwidth_kbps
            <= min(leg["bandwidth_kbps"] for leg in legs),
            "bid bandwidth outside [widest leg minimum, narrowest leg]",
        )
        escrow_mist = path_escrow_mist(
            bandwidth_kbps,
            legs[0]["expiry"] - legs[0]["start"],
            price_micromist_per_unit,
            len(legs),
        )
        coin = ctx.take_owned(payment, COIN_TYPE)
        ctx.require(coin.payload["balance"] >= escrow_mist, "insufficient escrow")
        coin.payload["balance"] -= escrow_mist
        ctx.mutate(coin)
        bid = {
            "bidder": ctx.sender,
            "bandwidth_kbps": bandwidth_kbps,
            "price_micromist_per_unit": price_micromist_per_unit,
            "escrow_mist": escrow_mist,
            "seq": len(auction_object.payload["bids"]),
        }
        bid_object = ctx.create_object(
            bid_type, {"marketplace": marketplace, key: auction, **bid}, owner=marketplace
        )
        auction_object.payload["bids"].append(bid_object.object_id)
        ctx.mutate(auction_object)
        ctx.emit(
            placed_event,
            {"marketplace": marketplace, key: auction, "bid": bid_object.object_id, **bid},
        )
        return {"bid": bid_object.object_id, "escrow_mist": escrow_mist}

    def _settle(
        self,
        ctx: CallContext,
        marketplace: str,
        auction: str,
        auction_type: str,
        supplies_kbps: list[int] | None,
    ) -> tuple[list[dict], dict]:
        """Clear an auction's book and settle every leg, in this transaction.

        ``supplies_kbps`` clamps each leg's sellable bandwidth (``None``:
        all that was auctioned).  Effects, all of them or none:

        * every winner — in the order the clearing rule returned them, which
          is what fixes the new objects' ids — receives a bandwidth-split
          piece of every leg asset and pays ``ceil(units * clearing_price /
          1e6)`` MIST per leg; the escrow surplus comes back as a fresh coin;
        * every loser's full escrow comes back as a fresh coin;
        * each leg's seller receives one coin with that leg's proceeds;
        * each leg's unawarded bandwidth reverts to a **posted listing at
          the leg's reserve price** under its seller's name (so a failed or
          thin auction degrades to the posted market instead of stranding
          capacity), unless nothing remains;
        * the auction and all bid objects are destroyed.

        Escrow is conserved exactly: total paid to sellers plus total
        refunds equals total escrow taken at bid time.  Returns the legs and
        the settlement as ``settle_path_auction`` reports it.
        """
        _, bid_type, _, clear = _PROTOCOLS[auction_type]
        market = ctx.take_shared(marketplace, MARKETPLACE_TYPE)
        auction_object, legs = self._book(ctx, marketplace, auction, auction_type)
        ctx.require(
            ctx.sender in {leg["seller"] for leg in legs}
            or ctx.sender == auction_object.payload.get("creator"),
            "not the seller: only a leg seller or the creator may settle",
        )
        targets = [
            ctx.take_owned(leg["asset"], ASSET_TYPE, owner=marketplace) for leg in legs
        ]
        if supplies_kbps is None:
            supplies_kbps = [leg["bandwidth_kbps"] for leg in legs]
        ctx.require(len(supplies_kbps) == len(legs), "one supply per leg required")
        for supply, leg in zip(supplies_kbps, legs):
            ctx.require(
                0 <= supply <= leg["bandwidth_kbps"],
                "supply must be within [0, leg bandwidth]",
            )
        duration = legs[0]["expiry"] - legs[0]["start"]

        bid_objects = {}
        bids = []
        for bid_id in auction_object.payload["bids"]:
            bid_object = ctx.take_owned(bid_id, bid_type, owner=marketplace)
            placed = bid_object.payload
            bid_objects[placed["seq"]] = bid_object
            bids.append(
                Bid(
                    bidder=placed["bidder"],
                    bandwidth_kbps=placed["bandwidth_kbps"],
                    price_micromist_per_unit=placed["price_micromist_per_unit"],
                    seq=placed["seq"],
                )
            )
        outcome = clear(
            bids,
            [
                LegSupply(
                    supply_kbps=supply,
                    reserve_micromist=leg["reserve_micromist_per_unit"],
                    share_cap_kbps=leg["share_cap_kbps"],
                    total_kbps=leg["bandwidth_kbps"],
                    min_fragment_kbps=leg["min_bandwidth_kbps"],
                )
                for supply, leg in zip(supplies_kbps, legs)
            ],
        )
        clearing_prices = list(outcome.clearing_prices_micromist)

        def close(bid: Bid, paid_mist: int) -> tuple[str, int]:
            """A bid leaves the book: its escrow, less what it paid, goes back."""
            bid_object = bid_objects[bid.seq]
            refund_mist = bid_object.payload["escrow_mist"] - paid_mist
            self._pay(ctx, bid.bidder, refund_mist)
            ctx.delete_object(bid_object)
            return bid_object.object_id, refund_mist

        leg_proceeds = [0] * len(legs)
        winner_reports = []
        for bid in outcome.winners:
            pieces = []
            paid_mist = 0
            for index, price in enumerate(clearing_prices):
                target = targets[index]
                if bid.bandwidth_kbps == target.payload["bandwidth_kbps"]:
                    piece, targets[index] = target, None
                else:
                    piece = split_bandwidth_inner(
                        ctx, target, bid.bandwidth_kbps, new_owner=marketplace
                    )
                leg_paid = -(-bid.bandwidth_kbps * duration * price // MICROMIST)
                leg_proceeds[index] += leg_paid
                paid_mist += leg_paid
                ctx.transfer(piece, bid.bidder)
                pieces.append(piece.object_id)
            bid_id, refund_mist = close(bid, paid_mist)
            winner_reports.append(
                {
                    "bidder": bid.bidder,
                    "bid": bid_id,
                    "bandwidth_kbps": bid.bandwidth_kbps,
                    "paid_mist": paid_mist,
                    "refund_mist": refund_mist,
                    "assets": pieces,
                }
            )

        loser_reports = []
        for lost in outcome.losers:
            bid_id, refund_mist = close(lost.bid, 0)
            loser_reports.append(
                {
                    "bidder": lost.bid.bidder,
                    "bid": bid_id,
                    "leg": lost.leg,
                    "refund_mist": refund_mist,
                    "reason": lost.reason,
                }
            )

        leg_reports = []
        for index, (leg, target) in enumerate(zip(legs, targets)):
            self._pay(ctx, leg["seller"], leg_proceeds[index])
            listing_id = None
            if target is not None:
                # Unawarded bandwidth reverts to the posted market at the
                # reserve price — the "zero bids / thin demand" degradation.
                listing_id = self._relist(
                    ctx, market, target, leg["seller"],
                    leg["reserve_micromist_per_unit"], "Listed",
                )
            leg_reports.append(
                {
                    "leg_index": index,
                    "seller": leg["seller"],
                    "clearing_price_micromist": clearing_prices[index],
                    "proceeds_mist": leg_proceeds[index],
                    "listing": listing_id,
                }
            )

        ctx.delete_object(auction_object)
        ctx.mutate(market)
        return legs, {
            "clearing_prices_micromist": clearing_prices,
            "supplies_kbps": list(supplies_kbps),
            "winners": winner_reports,
            "losers": loser_reports,
            "legs": leg_reports,
            "proceeds_mist": sum(leg_proceeds),
        }

    def _pay(self, ctx: CallContext, recipient: str, amount_mist: int) -> None:
        """A fresh coin for ``recipient`` — how the market pays anybody."""
        if amount_mist > 0:
            ctx.create_object(COIN_TYPE, {"balance": amount_mist}, owner=recipient)

    def _relist(
        self, ctx: CallContext, market, asset_object, seller: str, price: int, event: str
    ) -> str:
        """Keep a remainder asset on the market under a fresh listing."""
        listing = ctx.create_object(
            LISTING_TYPE,
            {
                "marketplace": market.object_id,
                "asset": asset_object.object_id,
                "seller": seller,
                "price_micromist_per_unit": price,
            },
            owner=market.object_id,
        )
        market.payload["listing_count"] += 1
        ctx.emit(event, _listing_snapshot(listing, asset_object))
        return listing.object_id


def _clear_window(bids, supplies) -> PathClearingOutcome:
    """The window rule on the one leg, reported the way the path rule reports:
    same winners in the same order, every loss on leg 0."""
    outcome = uniform_price_clearing(bids, **vars(supplies[0]))
    return PathClearingOutcome(
        winners=outcome.winners,
        losers=tuple(LostPathBid(lost.bid, 0, lost.reason) for lost in outcome.losers),
        leg_outcomes=(outcome,),
        clearing_prices_micromist=(outcome.clearing_price_micromist,),
        rounds=1,
    )


# Auction type -> (the key its bids and events name it by, bid type, the
# event a placed bid emits, clearing rule).  Object types and event names are
# what the chain has always shown; everything else about the two is shared.
_PROTOCOLS = {
    AUCTION_TYPE: ("auction", BID_TYPE, "BidPlaced", _clear_window),
    PATH_AUCTION_TYPE: (
        "path_auction", PATH_BID_TYPE, "PathBidPlaced", combinatorial_path_clearing,
    ),
}


def _rectangle(asset: dict) -> dict:
    """What an asset sells, as every event that advertises one spells it."""
    return {
        key: asset[key]
        for key in (
            "isd", "asn", "interface", "is_ingress", "bandwidth_kbps",
            "start", "expiry", "granularity", "min_bandwidth_kbps",
        )
    }


def _listing_snapshot(listing, asset_object) -> dict:
    """Full listing state for Listed/Relisted events (indexer consumption)."""
    return {
        "marketplace": listing.payload["marketplace"],
        "listing": listing.object_id,
        "asset": asset_object.object_id,
        "seller": listing.payload["seller"],
        "price_micromist_per_unit": listing.payload["price_micromist_per_unit"],
        **_rectangle(asset_object.payload),
    }
