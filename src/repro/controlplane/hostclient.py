"""Host-side control-plane client (§3.2 client stack).

The host discovers listings and auctions through an off-chain
:class:`MarketIndexer` (incremental, event-driven — never a ledger rescan,
and no private replay of the market's events here: the one stream this
client reads itself is its own deliveries), plans purchases
declaratively (:class:`ListingQuery`/:class:`PathSpec` in, ranked
:class:`PathQuote`\\ s out), assembles an **atomic buy-and-redeem**
transaction covering every hop it wants to reserve — buy ingress asset,
buy egress asset, redeem the pair, for each AS crossing — and later
decrypts the sealed reservations the ASes deliver.

Every purchase, transfer and redemption is one transaction shape with
different contents: :meth:`HostClient._lower` is the one lowering from a
plan to commands (``docs/architecture.md``, "From plan to transaction").

Atomicity is the ledger's: if any hop cannot be bought (sold out, price
moved, insufficient funds), the whole transaction aborts and no money moves
(§4.2 "Atomic End-to-End Guarantees").  On top of that, a client-side
``max_price_mist`` guard repriced against the live index refuses to submit
at all when a scarcity-price move since planning would bust the budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.contracts.asset import (
    ASSET_TYPE,
    DELIVERY_TYPE,
    delivery_context,
    requested_record,
)
from repro.crypto.sealing import KeyPair, SealedBox, unseal
from repro.hummingbird.reservation import FlyoverReservation
from repro.ledger.accounts import COIN_TYPE, Account
from repro.ledger.executor import LedgerExecutor, SubmittedTransaction
from repro.ledger.transactions import Command, Result, Transaction
from repro.marketdata import (
    MICROMIST,
    BudgetExceeded,
    Candidate,
    IncompatibleGranularity,
    ListingNotFound,
    ListingQuery,
    MarketIndexer,
    OpenAuction,
    PathQuote,
    PathSpec,
    PurchasePlanner,
    direction_keys,
)
from repro.pathadm import path_escrow_mist
from repro.scion.addresses import IsdAs
from repro.scion.paths import AsCrossing
from repro.telemetry import get_registry, tracing
from repro.transfers import (
    DeadlineTransfer,
    TransferAborted,
    TransferOutcome,
    TransferPlanner,
)

# Why this host rejects a delivered reservation record, by the first field of
# :func:`~repro.contracts.asset.requested_record` in which it differs from
# what the redeem request asked for.  Host-side codes in
# ``asset.REFUSAL_CODES``' style: no contract reads them.
MISDELIVERY_CODES = (
    "wrong_as", "wrong_ingress", "wrong_egress", "wrong_bw_cls", "wrong_start", "wrong_duration"
)

__all__ = [
    "AcquireOutcome",
    "BidSettlement",
    "BudgetExceeded",
    "HostClient",
    "IncompatibleGranularity",
    "ListingNotFound",
]


def _bid_names(is_path: bool) -> tuple[str, str]:
    """The trace prefix (``<prefix>.placed`` / ``.settled``, also
    :class:`AcquireOutcome`'s mode) and the id key of a bid into a path or a
    window auction."""
    return ("path_bid", "path_auction") if is_path else ("bid", "auction")


@dataclass(frozen=True)
class BidSettlement:
    """This host's aggregate outcome in one settled auction, window or path.

    ``won`` is true when at least one of the host's bids was awarded;
    ``assets`` are the bandwidth-split pieces it now owns (redeemable like
    any purchased asset) — one per winning bid of a window auction; of a
    path auction one per leg in path order, pairable for
    :meth:`HostClient.redeem_path`.  ``paid_mist`` is the total charged at
    the clearing price of every leg (``clearing_prices_micromist``, one
    entry for a window auction) and ``refund_mist`` everything the
    settlement returned (losing escrows plus winners' escrow surplus).
    """

    auction: str
    won: bool
    bandwidth_kbps: int
    paid_mist: int
    refund_mist: int
    clearing_prices_micromist: tuple[int, ...]
    assets: tuple[str, ...] = ()
    reasons: tuple[str, ...] = ()

    @property
    def clearing_price_micromist(self) -> int:
        """The uniform price of a window auction — its one leg's."""
        (price,) = self.clearing_prices_micromist
        return price


@dataclass(frozen=True)
class AcquireOutcome:
    """What :meth:`HostClient.acquire` did: bid into an auction or buy posted.

    ``mode`` is ``"bid"`` (an open auction covered the window — await its
    settlement; ``"path_bid"`` when it is a path auction) or ``"bought"``
    (posted-price fallback — the asset is owned immediately).
    ``reference`` is the auction id or the listing id.
    """

    mode: str
    submitted: SubmittedTransaction
    reference: str
    price_mist: int = 0


class HostClient:
    """A Hummingbird end host's control-plane agent."""

    def __init__(
        self,
        account: Account,
        executor: LedgerExecutor,
        rng: random.Random,
    ) -> None:
        self.account = account
        self.executor = executor
        self.rng = rng  # each redeem request's ephemeral key
        self.payment_coin: str | None = None
        # Outstanding redeem request id -> (the ephemeral key its answer is
        # sealed to, the record it asked for); the entry goes when it is answered.
        self._outstanding: dict[str, tuple[KeyPair, tuple]] = {}
        self._delivery_checkpoint = 0
        # (delivery id, reason) pairs this host could not decrypt or parse.
        self.undecryptable: list[tuple[str, str]] = []
        # Refused redeem request id -> its code; the pair is this host's again.
        self.refused: dict[str, str] = {}
        # Redeem request id -> the MISDELIVERY_CODES entry of a delivered
        # record that is not the one the request asked for.
        self.misdelivered: dict[str, str] = {}
        self._indexers: dict[str, MarketIndexer] = {}
        registry = get_registry()
        self._m_acquire = registry.counter(
            "host_acquire_total",
            "acquire() outcomes: sealed bid placed vs posted fallback buy.",
            ("mode",),
        )
        self._m_settle_results = registry.counter(
            "host_bid_settlements_total",
            "Settled auctions this host had bids in, by outcome.",
            ("outcome",),
        )
        self._m_refunds = registry.counter(
            "host_escrow_refunds_mist_total",
            "Escrow MIST refunded to this host at settle time.",
        ).labels()
        # Awaiting a settle is an idempotent read; refunds/outcomes are
        # counted once per auction.
        self._counted_settles: set[str] = set()

    # -- submission ------------------------------------------------------------

    def _submit(
        self, *commands: Command, redeem_key: KeyPair | None = None
    ) -> SubmittedTransaction:
        """One atomic transaction from this host: the only place it builds one.

        ``redeem_key`` is the ephemeral key its redeem commands carry.  Once
        the ledger has accepted the transaction the key is kept under every
        redeem request it created — the id a delivery names — beside the
        record the request asks for, read off the request object now on the
        ledger; a refused transaction created none and leaves nothing behind.
        """
        submitted = self.executor.submit(
            Transaction(sender=self.account.address, commands=list(commands))
        )
        if redeem_key is not None and submitted.effects.ok:
            ledger = self.executor.ledger
            for returned in submitted.effects.returns:
                if "request" in returned:
                    request = returned["request"]
                    self._outstanding[request] = (
                        redeem_key,
                        requested_record(ledger.get_object(request).payload),
                    )
        return submitted

    def _lower(
        self, legs, marketplace: str | None = None
    ) -> tuple[list[Command], KeyPair | None]:
        """Lower *legs* to the buy / ``fuse_time`` / redeem command list.

        Returns the commands and the ephemeral key their redeems carry
        (``None`` when nothing is redeemed), for :meth:`_submit`.

        A leg is ``(rate_kbps, hops)``, a hop an ``(ingress, egress)`` pair
        of *sides*, and a side is the ``(listing_id, start, expiry)`` pieces
        to buy at the leg's rate (time-adjacent, earliest first), the id of
        an asset this host already owns, or ``None`` — a hop missing a side
        is bought but not redeemed.

        Command ordering is load-bearing.  Legs must arrive in **descending
        start order** and each side's pieces are bought latest first,
        because the market contract keeps the *head* time remainder of a
        carve bound to the original listing id — so every earlier-window
        purchase from the same listing stays valid later in the same
        transaction.  A side's pieces are then fused earliest-first
        (``fuse_time`` keeps the first operand's asset id) into one asset,
        and each hop redeems exactly once per leg, every redeem of the
        transaction under one fresh ephemeral key.
        """
        commands: list[Command] = []
        ephemeral = None
        for rate_kbps, hops in legs:
            for hop in hops:
                held = []
                for side in hop:
                    if side is None or isinstance(side, str):
                        held.append(side)
                        continue
                    base = len(commands)
                    for listing_id, start, expiry in reversed(side):
                        commands.append(
                            Command(
                                "market",
                                "buy",
                                {
                                    "marketplace": marketplace,
                                    "listing": listing_id,
                                    "start": start,
                                    "expiry": expiry,
                                    "bandwidth_kbps": rate_kbps,
                                    "payment": self.payment_coin,
                                },
                            )
                        )
                    # Buy results, re-ordered earliest piece first.
                    assets = [
                        Result(base + i, "asset") for i in reversed(range(len(side)))
                    ]
                    while len(assets) > 1:
                        commands.append(
                            Command(
                                "asset",
                                "fuse_time",
                                {"first": assets[0], "second": assets[1]},
                            )
                        )
                        assets[:2] = [Result(len(commands) - 1, "asset")]
                    held.append(assets[0])
                if None in held:
                    continue
                if ephemeral is None:
                    ephemeral = KeyPair.generate(self.rng)
                commands.append(
                    Command(
                        "asset",
                        "redeem",
                        {
                            "ingress": held[0],
                            "egress": held[1],
                            "public_key": ephemeral.public,
                        },
                    )
                )
        return commands, ephemeral

    # -- funding ---------------------------------------------------------------

    def fund(self, amount_mist: int) -> str:
        """Mint a payment coin (stands in for acquiring SUI out of band).

        Returns:
            The coin object id, also remembered as :attr:`payment_coin`
            (the coin every purchase and bid draws from).

        Raises:
            RuntimeError: the mint transaction was refused.
        """
        submitted = self._submit(Command("coin", "mint", {"amount": amount_mist}))
        if not submitted.effects.ok:
            raise RuntimeError(f"funding failed: {submitted.effects.error}")
        self.payment_coin = submitted.effects.returns[0]["coin"]
        return self.payment_coin

    def _funded(self, before: str) -> None:
        if self.payment_coin is None:
            raise RuntimeError(f"fund() the client before {before}")

    def _coin_balance(self, coin_id: str) -> int:
        coin = self.executor.ledger.objects.get(coin_id)
        return coin.payload["balance"] if coin is not None else 0

    def consolidate_coins(self) -> int:
        """Merge every coin this host owns back into :attr:`payment_coin`.

        Auction settlements pay refunds (losing escrows, winners' escrow
        surplus) and sale proceeds as *fresh* coin objects; without a
        merge the payment coin drains even while the host stays solvent.
        Called automatically by :meth:`place_bid` when the payment coin
        alone cannot cover an escrow; safe to call any time after
        :meth:`fund`.

        Returns:
            The payment coin's balance after merging.

        Raises:
            RuntimeError: the client was never funded, or a merge
                transaction was refused.
        """
        self._funded("consolidating")
        others = [
            coin.object_id
            for coin in self.executor.ledger.objects_owned_by(
                self.account.address, COIN_TYPE
            )
            if coin.object_id != self.payment_coin
        ]
        if others:
            coin = self.payment_coin
            submitted = self._submit(
                *(
                    Command("coin", "merge", {"coin": coin, "other": other})
                    for other in others
                )
            )
            if not submitted.effects.ok:
                raise RuntimeError(
                    f"coin consolidation failed: {submitted.effects.error}"
                )
        return self._coin_balance(self.payment_coin)

    # -- discovery ---------------------------------------------------------------

    def attach_indexer(self, marketplace: str, indexer: MarketIndexer) -> None:
        """Share an existing index (e.g. the deployment-wide one).

        Indexing is off-chain infrastructure; hosts of one deployment
        normally consult one shared index instead of each replaying the
        event stream.
        """
        self._indexers[marketplace] = indexer

    def indexer(self, marketplace: str) -> MarketIndexer:
        """This host's index of the marketplace (created on first use)."""
        found = self._indexers.get(marketplace)
        if found is None:
            found = MarketIndexer(self.executor.ledger, marketplace)
            self._indexers[marketplace] = found
        return found

    def plan_path(self, marketplace: str, spec: PathSpec) -> PathQuote:
        """The cheapest in-budget quote, ready for :meth:`atomic_buy_and_redeem`.

        Each hop's ingress and egress candidates share one granule-aligned
        window — the smallest aligned rectangle covering the requested one,
        so it may start earlier / end later than requested — or the redeem
        would abort.

        Raises:
            BudgetExceeded: the cheapest quote exceeds ``spec.budget_mist``.
            ListingNotFound: nothing covers the spec.
        """
        return PurchasePlanner(self.indexer(marketplace)).best(spec)

    # -- auctions ----------------------------------------------------------------------
    #
    # What is open, what it sells and how it settled is the index's to say
    # (``MarketIndexer.open_auctions`` / ``find_auction`` / ``auction`` /
    # ``settlement``); this client only bids and reads its own outcome.

    @staticmethod
    def _unit_price(legs: list[dict], bandwidth_kbps: int, max_price_mist: int) -> int:
        """The unit price ``max_price_mist`` buys of ``bandwidth_kbps`` on every
        leg over the window.  The budget floors per leg first: each leg's
        escrow is ceil-priced on its own, so a price floored over the whole
        path could escrow up to ``len(legs) - 1`` MIST over the budget."""
        duration = legs[0]["expiry"] - legs[0]["start"]
        return max_price_mist // len(legs) * MICROMIST // (bandwidth_kbps * duration)

    def _place(
        self, marketplace: str, found: OpenAuction, bandwidth_kbps: int, unit_price: int
    ) -> SubmittedTransaction:
        """Submit a bid at ``unit_price`` for ``bandwidth_kbps`` on every leg of
        ``found`` (a window auction is the one-leg case): checked against every
        reserve, its escrow covered by the payment coin.  Raises the
        ``ValueError`` :meth:`place_bid` documents."""
        legs = found.legs
        duration = legs[0]["expiry"] - legs[0]["start"]
        reserve = max(leg["reserve_micromist_per_unit"] for leg in legs)
        if unit_price < reserve:
            # Knowable client-side: below any leg's reserve the bid loses,
            # locking its escrow until settle for nothing.
            below = (
                " per leg, below the dearest leg reserve"
                if found.is_path
                else ", below the auction's reserve"
            )
            raise ValueError(f"a bid of {unit_price} micromist/unit{below} of {reserve}")
        escrow_mist = path_escrow_mist(bandwidth_kbps, duration, unit_price, len(legs))
        if self._coin_balance(self.payment_coin) < escrow_mist:
            # Earlier refunds arrive as fresh coins; fold them back in
            # before giving up on the escrow.
            self.consolidate_coins()
        args = {
            "marketplace": marketplace,
            _bid_names(found.is_path)[1]: found.auction_id,
            "bandwidth_kbps": bandwidth_kbps,
            "price_micromist_per_unit": unit_price,
            "payment": self.payment_coin,
        }
        return self._submit(
            Command("market", "place_path_bid", args)
            if found.is_path
            else Command("market", "place_bid", args)
        )

    def _placed(
        self, marketplace: str, found: OpenAuction, bandwidth_kbps: int, max_price_mist: int
    ) -> AcquireOutcome:
        """An ``acquire*`` front door found a covering auction: place the bid,
        count it and trace it — ``mode`` (``"bid"`` or ``"path_bid"``) is the
        outcome's, the metric label and the ``<mode>.placed`` event."""
        mode, key = _bid_names(found.is_path)
        auction = found.auction_id
        submitted = self.place_bid(marketplace, auction, bandwidth_kbps, max_price_mist)
        self._m_acquire.labels(mode).inc()
        tracing.event(
            f"{mode}.placed",
            **{key: auction},
            bandwidth_kbps=bandwidth_kbps,
            max_price_mist=max_price_mist,
        )
        return AcquireOutcome(mode=mode, submitted=submitted, reference=auction)

    def _bought(
        self, label: str, event: str, submitted, reference: str, bandwidth_kbps, **attrs
    ) -> AcquireOutcome:
        """An ``acquire*`` front door fell through to the posted book: sum what
        the ``Sold`` events charged (nothing, if the purchase aborted), count
        and trace the purchase."""
        price = 0
        if submitted.effects.ok:
            price = sum(ret.get("price_mist", 0) for ret in submitted.effects.returns)
        self._m_acquire.labels(label).inc()
        tracing.event(event, **attrs, price_mist=price, bandwidth_kbps=bandwidth_kbps)
        return AcquireOutcome(
            mode="bought", submitted=submitted, reference=reference, price_mist=price
        )

    # -- sealed-bid auctions --------------------------------------------------------

    def place_bid(
        self,
        marketplace: str,
        auction: str,
        bandwidth_kbps: int,
        max_price_mist: int,
    ) -> SubmittedTransaction:
        """Place one sealed bid for ``bandwidth_kbps`` on every leg of an open
        auction, window or path, escrowing up to ``max_price_mist``.

        ``max_price_mist`` is the bidder's total willingness to pay over the
        auction's whole window (the whole path, for a path auction); it
        converts to the contract's unit price per leg by flooring, first to
        whole MIST per leg and then against ``bandwidth * duration`` units,
        so the escrow (:func:`repro.pathadm.path_escrow_mist`) can never
        exceed the stated maximum.  The escrow is locked until the seller
        settles — :meth:`await_settle` reports the outcome and the refund; a
        path bid is awarded a piece of every leg or refunded everything.

        Raises:
            RuntimeError: the client was never funded.
            ValueError: the auction is not open or not fully contributed, or
                a budget whose floored unit price falls below some leg's
                reserve (the bid could only lock its escrow and lose).
        """
        self._funded("bidding")
        found = self.indexer(marketplace).auction(auction)
        return self._place(
            marketplace, found, bandwidth_kbps,
            self._unit_price(found.legs, bandwidth_kbps, max_price_mist),
        )

    def bid(
        self,
        marketplace: str,
        auction: str,
        bandwidth_kbps: int,
        price_micromist_per_unit: int,
    ) -> SubmittedTransaction:
        """:meth:`place_bid` at a unit price, to the micromist: a MIST budget
        floors to steps of ``10**6 / (bandwidth_kbps * seconds)`` micromist
        (6.67 for 2,500 kbps over a minute).  Traced as ``bid.placed`` (or
        ``path_bid.placed``), like :meth:`acquire`'s bids; raises what
        :meth:`place_bid` raises."""
        self._funded("bidding")
        found = self.indexer(marketplace).auction(auction)
        submitted = self._place(marketplace, found, bandwidth_kbps, price_micromist_per_unit)
        prefix, key = _bid_names(found.is_path)
        tracing.event(
            f"{prefix}.placed", **{key: auction}, bandwidth_kbps=bandwidth_kbps,
            price_micromist_per_unit=price_micromist_per_unit,
        )
        return submitted

    def await_settle(self, marketplace: str, auction: str) -> BidSettlement | None:
        """This host's outcome in an auction, window or path, once it settles.

        Returns:
            ``None`` while the auction is still open (poll again after the
            AS's next settle pass), else a :class:`BidSettlement`
            aggregating every bid this host placed — winners' assets and
            clearing-price charges, losers' full refunds.  A path winner's
            ``assets`` hold one piece per leg in path order, ready for
            :meth:`redeem_path`.
        """
        payload = self.indexer(marketplace).settlement(auction)
        if payload is None:
            return None
        is_path = "path_auction" in payload  # an AuctionSettled names its "auction"
        mine = self.account.address
        wins = [winner for winner in payload["winners"] if winner["bidder"] == mine]
        losses = [loser for loser in payload["losers"] if loser["bidder"] == mine]
        assets = tuple(
            asset
            for winner in wins
            # a path winner holds one piece per leg, a single-window winner one
            for asset in (winner["assets"] if is_path else [winner["asset"]])
        )
        totals = {
            "won": bool(assets),
            "bandwidth_kbps": sum(winner["bandwidth_kbps"] for winner in wins),
            "paid_mist": sum(winner["paid_mist"] for winner in wins),
            "refund_mist": sum(bid["refund_mist"] for bid in wins + losses),
        }
        if auction not in self._counted_settles:
            self._counted_settles.add(auction)
            self._m_settle_results.labels("won" if totals["won"] else "lost").inc()
            if totals["refund_mist"]:
                self._m_refunds.inc(totals["refund_mist"])
        prefix, key = _bid_names(is_path)
        tracing.event(f"{prefix}.settled", **{key: auction}, **totals)
        return BidSettlement(
            auction=auction,
            # one price per leg; a window auction reports its one leg's bare
            clearing_prices_micromist=tuple(
                payload["clearing_prices_micromist"]
                if is_path
                else [payload["clearing_price_micromist"]]
            ),
            assets=assets,
            reasons=tuple(loser["reason"] for loser in losses),
            **totals,
        )

    def acquire(
        self,
        marketplace: str,
        isd_as: IsdAs,
        interface: int,
        is_ingress: bool,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        max_price_mist: int,
    ) -> AcquireOutcome:
        """Bid into the window's auction, or buy posted when none is open.

        The auction-aware acquisition front door: when an open auction
        covers the rectangle, a sealed bid worth up to ``max_price_mist``
        goes in (ownership is decided at settle time); otherwise the
        planner's posted-price machinery takes over — cheapest covering
        listing, bought immediately, still subject to the budget.

        Returns:
            An :class:`AcquireOutcome` (``mode`` ``"bid"`` or ``"bought"``).

        Raises:
            ListingNotFound: no auction *and* no posted listing covers.
            BudgetExceeded: the posted cover costs more than the budget.
        """
        self._funded("acquiring")
        auction = self.indexer(marketplace).find_auction(
            [(isd_as.isd, isd_as.asn, interface, is_ingress)],
            start, expiry, bandwidth_kbps,
        )
        if auction is not None:
            return self._placed(marketplace, auction, bandwidth_kbps, max_price_mist)
        found = self.indexer(marketplace).best(
            ListingQuery(
                isd_as=isd_as,
                interface=interface,
                is_ingress=is_ingress,
                start=start,
                expiry=expiry,
                bandwidth_kbps=bandwidth_kbps,
            )
        )
        if found is None:
            raise ListingNotFound(
                f"no auction or listing at {isd_as} if={interface} "
                f"{'ingress' if is_ingress else 'egress'} covers "
                f"[{start},{expiry})x{bandwidth_kbps}kbps"
            )
        if found.price_mist > max_price_mist:
            raise BudgetExceeded(
                f"posted cover costs {found.price_mist} MIST, over the "
                f"{max_price_mist} MIST budget"
            )
        # One piece on one side: bought and owned, not redeemed (redeem_pair is).
        piece = ((found.listing.listing_id, found.start, found.expiry),)
        hop = (piece, None) if is_ingress else (None, piece)
        commands, _ = self._lower([(bandwidth_kbps, [hop])], marketplace)
        submitted = self._submit(*commands)
        return self._bought(
            "bought", "listing.bought", submitted, found.listing.listing_id,
            bandwidth_kbps, listing=found.listing.listing_id,
        )

    # -- combinatorial path auctions ------------------------------------------------
    #
    # A path auction is bid into and awaited like a window auction
    # (:meth:`place_bid`, :meth:`await_settle`); its winnings redeem together.

    def redeem_path(
        self, asset_pairs: list[tuple[str, str]]
    ) -> SubmittedTransaction:
        """Redeem a whole path's (ingress, egress) asset pairs atomically.

        One transaction holding a redeem per AS crossing — the redemption
        path for path-auction winnings (a winner's
        :attr:`BidSettlement.assets` in leg order pair up as
        ``(assets[0], assets[1]), (assets[2], assets[3]), ...``).  If any
        pair is incompatible the whole transaction aborts and no redeem
        request reaches any AS.

        Returns:
            The submitted transaction; ``returns[i]["request"]`` names the
            i-th crossing's redeem request.
        """
        # Every side already owned: nothing to buy, so no rate either.
        commands, redeem_key = self._lower([(None, asset_pairs)])
        submitted = self._submit(*commands, redeem_key=redeem_key)
        tracing.event(
            "path.redeem", pairs=len(asset_pairs), status=submitted.effects.status
        )
        return submitted

    def acquire_path(
        self,
        marketplace: str,
        crossings: list[AsCrossing],
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        max_price_mist: int,
    ) -> AcquireOutcome:
        """Bid into a covering path auction, or buy posted hop listings.

        The path-level acquisition front door: when a fully contributed
        path auction covers every crossing, one combinatorial bid worth up
        to ``max_price_mist`` goes in (``mode="path_bid"`` — await its
        settlement, then :meth:`redeem_path`).  Otherwise the planner's
        posted-price machinery takes over: the cheapest covering quote is
        bought and redeemed atomically, guarded by the same
        ``max_price_mist`` repricing rule as
        :meth:`atomic_buy_and_redeem` (``mode="bought"``).

        Raises:
            RuntimeError: the client was never funded.
            ListingNotFound: no path auction *and* no posted quote covers.
            BudgetExceeded: the posted cover reprices over the budget.
        """
        self._funded("acquiring")
        auction = self.indexer(marketplace).find_auction(
            direction_keys(crossings), start, expiry, bandwidth_kbps
        )
        if auction is not None:
            return self._placed(marketplace, auction, bandwidth_kbps, max_price_mist)
        spec = PathSpec(crossings, start, expiry, bandwidth_kbps, budget_mist=max_price_mist)
        quote = self.plan_path(marketplace, spec)
        submitted = self.atomic_buy_and_redeem(
            marketplace, quote, max_price_mist=max_price_mist
        )
        return self._bought(
            "path_bought", "path.bought", submitted,
            quote.hops[0].ingress_candidate.listing.listing_id if quote.hops else "",
            bandwidth_kbps, hops=len(quote.hops),
        )

    def redeem_pair(
        self, ingress_asset: str, egress_asset: str
    ) -> SubmittedTransaction:
        """Redeem a compatible ingress/egress asset pair this host owns.

        The redemption path for assets acquired *outside* an atomic
        buy-and-redeem — auction winnings, transfers, fused remainders.
        Both assets must agree on AS, issuer, bandwidth and window (the
        asset contract enforces it); the issuing AS answers the emitted
        redeem request with a sealed reservation that
        :meth:`collect_reservations` decrypts.

        Returns:
            The submitted transaction (``returns[0]["request"]`` names the
            redeem request routed to the AS).
        """
        pair = (ingress_asset, egress_asset)
        commands, redeem_key = self._lower([(None, [pair])])
        submitted = self._submit(*commands, redeem_key=redeem_key)
        tracing.event(
            "redeem.requested",
            ingress_asset=ingress_asset,
            egress_asset=egress_asset,
            request=(
                submitted.effects.returns[0]["request"]
                if submitted.effects.ok
                else None
            ),
            status=submitted.effects.status,
        )
        return submitted

    # -- atomic purchase ------------------------------------------------------------

    def atomic_buy_and_redeem(
        self,
        marketplace: str,
        quote: PathQuote,
        max_price_mist: int | None = None,
    ) -> SubmittedTransaction:
        """One transaction: buy ingress+egress and redeem, for every hop.

        With ``max_price_mist`` the quote is repriced against the live index
        first (vanished listings substituted with their exact-window
        replacements) and the purchase aborts client-side (no transaction,
        no gas) when the fresh estimate exceeds the budget — a
        scarcity-price move between planning and buying cannot silently
        overspend.  The authoritative paid price is whatever ``Sold``
        reports on-chain.
        """
        self._funded("buying")
        if max_price_mist is not None:
            repriced = self.reprice(marketplace, quote)
            if repriced.price_mist > max_price_mist:
                raise BudgetExceeded(
                    f"plan repriced at {repriced.price_mist} MIST (planned "
                    f"{quote.price_mist}), over the "
                    f"{max_price_mist} MIST budget; not submitting"
                )
            quote = repriced
        # A quote is one leg with one piece a side.
        hops = [
            tuple(
                ((candidate.listing.listing_id, candidate.start, candidate.expiry),)
                for candidate in (hop.ingress_candidate, hop.egress_candidate)
            )
            for hop in quote.hops
        ]
        commands, redeem_key = self._lower([(quote.bandwidth_kbps, hops)], marketplace)
        return self._submit(*commands, redeem_key=redeem_key)

    @staticmethod
    def _live(indexer, listing_id: str, start: int, expiry: int, rate_kbps: int):
        """The indexed listing if it can still sell exactly this piece —
        listed, ``[start, expiry)`` on its granule lattice and inside its
        window, ``rate_kbps`` carvable — else ``None``.  :meth:`reprice`
        substitutes a dead piece, a transfer's preflight aborts on one."""
        record = indexer.listing(listing_id)
        if (
            record is not None
            and record.align(start, expiry) == (start, expiry)
            and record.sellable(rate_kbps)
        ):
            return record
        return None

    def reprice(self, marketplace: str, quote: PathQuote) -> PathQuote:
        """Re-estimate a quote against the live index; the returned quote's
        ``price_mist`` is the fresh estimate.

        Listed unit prices are immutable on-chain, so a planned listing
        that still covers its leg reprices to the planned amount; a
        scarcity-price move materializes as the planned listing
        *disappearing* (sold out, cancelled) and pricier replacements
        taking its place.  Such legs are **substituted** with the live
        cheapest exact-window replacement in the returned quote, so a
        submission that passes the budget guard buys viable listings at
        exactly the repriced amounts.  A leg nothing covers anymore keeps
        its planned listing and share: the atomic transaction will abort
        without charging a thing for it anyway.
        """
        indexer = self.indexer(marketplace)
        indexer.sync()
        rate_kbps = quote.bandwidth_kbps

        def fresh(hop, is_ingress: bool) -> Candidate:
            planned = hop.ingress_candidate if is_ingress else hop.egress_candidate
            window = (planned.start, planned.expiry)
            record = self._live(indexer, planned.listing.listing_id, *window, rate_kbps)
            if record is not None:
                return record.candidate(rate_kbps, *window)
            replacement = indexer.best(
                ListingQuery(
                    isd_as=hop.isd_as,
                    interface=hop.ingress if is_ingress else hop.egress,
                    is_ingress=is_ingress,
                    start=planned.start,
                    expiry=planned.expiry,
                    bandwidth_kbps=rate_kbps,
                    exact_window=True,
                ),
                sync=False,
            )
            return replacement if replacement is not None else planned

        hops = tuple(
            replace(
                hop,
                ingress_candidate=fresh(hop, True),
                egress_candidate=fresh(hop, False),
            )
            for hop in quote.hops
        )
        return replace(quote, hops=hops)

    # -- deadline transfers ---------------------------------------------------------

    def transfer(
        self,
        marketplace: str,
        crossings,
        bytes_total: int,
        deadline: int,
        *,
        release: int | None = None,
        max_rate_kbps: int | None = None,
        best_effort: bool = False,
    ):
        """Move ``bytes_total`` across ``crossings`` before ``deadline``.

        The deadline-transfer entry point: plans a malleable schedule
        (variable rate over time, stitched across listings — see
        :mod:`repro.transfers`) against this host's market index and
        executes it as **one atomic transaction**: every piece bought,
        adjacent pieces fused per direction, one redeem per hop per leg.

        Failure matrix:

        * Planning finds no schedule meeting bytes and deadline →
          :class:`~repro.transfers.InfeasibleTransfer` (carries the
          achievable bytes/spend); nothing is submitted.  With
          ``best_effort=True`` the max-achievable plan executes instead.
        * A planned listing vanished or shrank before submission →
          :class:`~repro.transfers.TransferAborted` with
          ``submitted is None`` (client-side preflight; no transaction,
          no gas).
        * The transaction itself aborts (sold out mid-race, insufficient
          funds) → :class:`~repro.transfers.TransferAborted` carrying the
          failed transaction; ledger atomicity already rolled back every
          buy, fuse, and redeem — no money moved, no assets changed
          hands.

        Args:
            release: earliest instant data can flow (defaults to the
                executor clock's now).
        """
        if release is None:
            release = int(self.executor.clock.now())
        request = DeadlineTransfer(
            crossings=tuple(crossings),
            bytes_total=bytes_total,
            release=release,
            deadline=deadline,
            max_rate_kbps=max_rate_kbps,
        )
        plan = TransferPlanner(self.indexer(marketplace)).plan(
            request, best_effort=best_effort
        )
        return self.execute_transfer_plan(marketplace, plan)

    def execute_transfer_plan(self, marketplace: str, plan):
        """Execute a planned transfer atomically; returns a
        :class:`~repro.transfers.TransferOutcome`.

        The plan's legs go through :meth:`_lower` latest first (its
        docstring says why the order is load-bearing).  The client-side
        preflight aborts without a transaction when a planned piece is no
        longer coverable at its exact window and rate.
        """
        self._funded("buying")
        if not plan.legs:
            # A best-effort plan over an empty or exhausted book: nothing
            # to buy, nothing to submit.
            return TransferOutcome(plan=plan, submitted=None, price_mist=0)
        self._preflight_transfer(marketplace, plan)

        def pieces(side) -> list[tuple]:
            return [(piece.listing_id, piece.start, piece.expiry) for piece in side]

        legs = [
            (
                leg.rate_kbps,
                [
                    (pieces(hop.ingress_pieces), pieces(hop.egress_pieces))
                    for hop in leg.hops
                ],
            )
            for leg in sorted(plan.legs, key=lambda leg: leg.start, reverse=True)
        ]
        commands, redeem_key = self._lower(legs, marketplace)
        submitted = self._submit(*commands, redeem_key=redeem_key)
        tracing.event(
            "transfer.submitted",
            legs=len(plan.legs),
            buys=plan.buy_count,
            redeems=plan.redeem_count,
            bytes=plan.bytes_scheduled,
            price_mist=plan.spend_mist,
            status=submitted.effects.status,
        )
        if not submitted.effects.ok:
            raise TransferAborted(
                f"transfer transaction aborted ({submitted.effects.status}); "
                "the ledger rolled back every buy, fuse, and redeem",
                submitted=submitted,
            )
        return TransferOutcome(
            plan=plan, submitted=submitted, price_mist=plan.spend_mist
        )

    def _preflight_transfer(self, marketplace: str, plan) -> None:
        """Client-side liveness check: every planned piece must still be
        coverable at its exact window and rate, or we abort without
        submitting (no transaction, no gas)."""
        indexer = self.indexer(marketplace)
        indexer.sync()
        for leg in plan.legs:
            for hop in leg.hops:
                for piece in hop.ingress_pieces + hop.egress_pieces:
                    window = (piece.start, piece.expiry)
                    live = self._live(indexer, piece.listing_id, *window, leg.rate_kbps)
                    if live is None:
                        raise TransferAborted(
                            f"listing {piece.listing_id} no longer covers "
                            f"[{piece.start},{piece.expiry}) at "
                            f"{leg.rate_kbps}kbps; transfer not submitted",
                            submitted=None,
                        )

    # -- delivery ------------------------------------------------------------------

    def collect_reservations(self) -> list[FlyoverReservation]:
        """Decrypt all sealed reservations delivered since the last call,
        and record every refusal of this host's requests in :attr:`refused`.

        A record that opens but is not the one its request asked for — another
        AS, interface, bandwidth class or window, compared field by field and
        exactly — is not returned: its request goes into :attr:`misdelivered`
        with the :data:`MISDELIVERY_CODES` entry of the first such field.

        A delivery this host cannot use — it answers no outstanding request,
        the request's key does not open the box, or the plaintext is not a
        reservation record — is attacker-chosen
        input (any registered AS can answer a redeem request with anything)
        and is skipped, recorded in :attr:`undecryptable`, rather than
        raised: the event checkpoint has already advanced, so raising here
        would cost the host every honest delivery of the same batch.

        The key is looked up by the request the delivery event names, never
        found by trial, so a garbage box costs at most one exponentiation;
        boxes an AS sealed under one share (one poll, one redeem key) pay
        for one exchange between them.  The collect owns
        :func:`~repro.crypto.sealing.unseal`'s table and drops it, shared
        secrets included, when it returns.

        Returns:
            One :class:`~repro.hummingbird.reservation.FlyoverReservation`
            per new usable delivery addressed to this host, in delivery
            order.
        """
        ledger = self.executor.ledger
        events = ledger.events_since(
            self._delivery_checkpoint, "ReservationDelivered", "RedemptionRefused"
        )
        self._delivery_checkpoint = ledger.checkpoint
        reservations: list[FlyoverReservation] = []
        exchanges: dict = {}
        for event in events:
            if event.payload["redeemer"] != self.account.address:
                continue
            if event.event_type == "RedemptionRefused":
                # no answer can follow a refusal: the key goes too
                self._outstanding.pop(event.payload["request"], None)
                self.refused[event.payload["request"]] = event.payload["reason_code"]
                continue
            delivery = ledger.objects.get(event.payload["delivery"])
            if delivery is None or delivery.type_tag != DELIVERY_TYPE:
                continue
            try:
                reservation = self._decrypt(delivery, event.payload["request"], exchanges)
            except (ValueError, KeyError, TypeError) as reason:
                self.undecryptable.append(
                    (delivery.object_id, f"{type(reason).__name__}: {reason}")
                )
                continue
            if reservation is not None:
                reservations.append(reservation)
        return reservations

    def _decrypt(self, delivery, request: str, exchanges: dict) -> FlyoverReservation | None:
        """The record a delivery seals, or ``None`` when it is not the one
        ``request`` asked for (recorded in :attr:`misdelivered`)."""
        # The ledger destroyed the request with this delivery: whatever the
        # box holds, no second answer can come, so the key goes now.
        outstanding = self._outstanding.pop(request, None)
        if outstanding is None:
            raise ValueError("delivery answers no outstanding request")
        keypair, requested = outstanding
        box = SealedBox(
            kem_share=delivery.payload["kem_share"],
            ciphertext=delivery.payload["ciphertext"],
            tag=delivery.payload["tag"],
        )
        try:
            plaintext = unseal(keypair, box, delivery_context(request), exchanges)
        except ValueError as error:
            raise ValueError(f"no ephemeral key decrypts the delivery: {error}") from None
        reservation = FlyoverReservation.from_bytes(plaintext)
        resinfo = reservation.resinfo
        delivered = (
            reservation.isd_as,
            resinfo.ingress,
            resinfo.egress,
            resinfo.bw_cls,
            resinfo.start,
            resinfo.duration,
        )
        if delivered != requested:
            self.misdelivered[request] = next(
                code
                for code, got, asked in zip(MISDELIVERY_CODES, delivered, requested)
                if got != asked
            )
            return None
        return reservation

    def owned_assets(self) -> list:
        """Bandwidth assets this host owns right now, as ledger objects: bought
        and not redeemed, won at auction, or handed back by a refusal."""
        return self.executor.ledger.objects_owned_by(self.account.address, ASSET_TYPE)
