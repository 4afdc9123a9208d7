"""AS-side control-plane service ("Hummingbird Service", §3.2 AS stack).

Responsibilities:

* register the AS with the asset contract (CP-PKI certificate + proof of
  possession);
* issue bandwidth assets for the AS's interfaces and list them on a
  marketplace;
* watch the event stream for redeem requests addressed to this AS;
* for each request: assign a ResID (online First-Fit interval colouring
  per ingress interface), derive the reservation key :math:`A_K` from the
  AS-local secret value, seal ``(ResInfo, A_K)`` under the redeemer's
  ephemeral public key, and deliver it through the asset contract (a
  fast-path transaction — only owned objects are touched); or, when the
  request cannot be served, refuse it on chain, which hands the redeemer
  its two assets back.

Every issuance and every delivery first passes the AS's
:class:`~repro.admission.AdmissionController`: the *issued* capacity
calendar stops the AS from overselling an interface across overlapping
asset windows, the *active* calendar accounts delivered reservations, and
the controller's pricer turns utilization into the scarcity-adjusted
listing price.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.admission import ACTIVE, AUCTION, AdmissionController, AdmissionRejected
from repro.admission.auction import Bid, WindowAuction
from repro.contracts.asset import delivery_context, requested_record
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.crypto.sealing import check_group_element, seal
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.hummingbird.resid import CapacityExhausted, ResIdAllocator
from repro.ledger.accounts import Account
from repro.ledger.executor import LedgerExecutor, SubmittedTransaction
from repro.ledger.transactions import Command, Result, Transaction
from repro.scion.topology import AutonomousSystem
from repro.telemetry import get_registry, tracing

DEFAULT_GRANULARITY = 60  # seconds: minimum reservation duration an AS supports
DEFAULT_MIN_BANDWIDTH = 100  # kbps: VoIP-sized minimum reservation (§4.4)
RESID_CAPACITY = 100_000  # concurrent reservation ids per ingress interface


@dataclass
class DeliveryRecord:
    """One answered redeem request: delivered, or refused with ``reason_code``."""

    request_id: str
    submitted: SubmittedTransaction
    delivery_id: str | None = None
    res_id: int | None = None
    reason_code: str | None = None


class _Refused(RuntimeError):
    """Why a request cannot be served: ``code`` is in ``asset.REFUSAL_CODES``."""

    def __init__(self, code: str, detail) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code


@dataclass
class AuctionedRectangle:
    """The rectangle of a window auction this AS opened and has not settled:
    the book :meth:`AsService.poll_bids` mirrors into and
    :meth:`AsService.settle_due_auctions` settles.  A path auction's legs are
    read off the market index instead (``MarketIndexer.auction``)."""

    auction_id: str
    marketplace: str
    interface: int
    is_ingress: bool
    bandwidth_kbps: int
    start: int
    expiry: int
    reserve_micromist_per_unit: int


@dataclass
class SettlementRecord:
    """One settled auction: the on-chain result plus the transaction."""

    auction_id: str
    clearing_price_micromist: int
    awarded_kbps: int
    proceeds_mist: int
    supply_kbps: int
    listing: str | None
    winners: list[dict]
    submitted: SubmittedTransaction


@dataclass
class PathSettlementRecord:
    """One settled path auction: the on-chain result plus the transaction."""

    path_auction: str
    clearing_prices_micromist: list[int]
    proceeds_mist: int
    supplies_kbps: list[int]
    winners: list[dict]
    legs: list[dict]
    submitted: SubmittedTransaction


class AsService:
    """The per-AS control-plane daemon."""

    def __init__(
        self,
        autonomous_system: AutonomousSystem,
        account: Account,
        executor: LedgerExecutor,
        pki,
        admission: AdmissionController,
        rng: random.Random,
        prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
    ) -> None:
        self.autonomous_system = autonomous_system
        self.account = account
        self.executor = executor
        self.pki = pki
        self.rng = rng  # sealing: each delivery's ephemeral secret
        self.prf_factory = prf_factory
        self.token_id: str | None = None
        self._allocators: dict[int, ResIdAllocator] = {}
        self._last_checkpoint = 0
        self.admission = admission
        # Sealed-bid auctions: open books, bid-event cursor.
        self.open_auctions: dict[str, AuctionedRectangle] = {}
        self._bid_checkpoint = 0
        # No-show reclamation (armed by enable_reclamation): the loop, which
        # holds the data-plane policer it reads and caps, and where it relists.
        self.reclamation = None
        self._relist_marketplace: str | None = None
        self._relist_base_micromist: int | None = None
        # (event, listing id or None, reason) per reclaimed reservation.
        self.relisted: list[tuple[object, str | None, str]] = []
        registry = get_registry()
        self._m_deliveries = registry.counter(
            "as_deliveries_total",
            "Redeem requests handled, by outcome.",
            ("isd_as", "outcome"),
        )
        self._m_settlements = registry.counter(
            "as_auction_settlements_total",
            "Auction settlements, by whether any bandwidth was awarded.",
            ("isd_as", "outcome"),
        )
        self._m_proceeds = registry.counter(
            "as_auction_proceeds_mist_total",
            "MIST proceeds across settled auctions.",
            ("isd_as",),
        )
        self._m_awarded = registry.counter(
            "as_auction_awarded_kbps_total",
            "Bandwidth awarded to auction winners, in kbps.",
            ("isd_as",),
        )
        self._m_path_legs = registry.counter(
            "as_path_legs_total",
            "Legs this AS contributed to combinatorial path auctions.",
            ("isd_as",),
        )
        self._m_path_settlements = registry.counter(
            "as_path_settlements_total",
            "Path auction settlements, by whether any path bid won.",
            ("isd_as", "outcome"),
        )

    @property
    def isd_as(self):
        return self.autonomous_system.isd_as

    def _submit(self, *commands: Command) -> SubmittedTransaction:
        """One atomic transaction from this AS: the only place it builds one."""
        return self.executor.submit(
            Transaction(sender=self.account.address, commands=list(commands))
        )

    def _rejected(self, interface: int, is_ingress: bool, decision):
        """The refusal every calendar rejection on this AS is reported as."""
        return AdmissionRejected(
            f"{self.isd_as} interface {interface} "
            f"({'ingress' if is_ingress else 'egress'}): {decision.reason}"
        )

    # -- registration -----------------------------------------------------------

    def register(self) -> SubmittedTransaction:
        """Obtain the authorization token (Fig. 2 prerequisite)."""
        key = self.account.signing_key
        submitted = self._submit(
            Command(
                "asset",
                "register_as",
                {
                    "certificate": self.pki.issue_certificate(self.isd_as, key.public),
                    "signature": key.sign(self.account.address.encode()),
                },
            )
        )
        if submitted.effects.ok:
            self.token_id = submitted.effects.returns[0]["token"]
        return submitted

    def register_as_seller(self, marketplace: str) -> SubmittedTransaction:
        return self._submit(
            Command("market", "register_seller", {"marketplace": marketplace})
        )

    # -- issuance ---------------------------------------------------------------

    def _issue(
        self,
        tag: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        min_bandwidth_kbps: int,
        follow_up: Command,
    ):
        """Claim the *issued* calendar, then mint the asset and hand it to
        ``follow_up`` (which takes it as ``Result(0, "asset")``) in one
        transaction — every way this AS puts bandwidth on the market.

        The caller prices ``follow_up`` *before* this claims the calendar,
        so a quote reflects the scarcity buyers saw, not the asset's own
        footprint.  A ledger refusal hands the claim straight back.

        Returns:
            ``(decision, submitted)``; ``submitted`` is ``None`` when the
            calendar refused the rectangle and nothing was sent.
        """
        decision = self.admission.admit_issue(
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            tag=f"{tag}:{self.isd_as}",
        )
        if not decision.admitted:
            return decision, None
        submitted = self._submit(
            Command(
                "asset",
                "issue",
                {
                    "token": self.token_id,
                    "bandwidth_kbps": bandwidth_kbps,
                    "start": start,
                    "expiry": expiry,
                    "interface": interface,
                    "is_ingress": is_ingress,
                    "granularity": DEFAULT_GRANULARITY,
                    "min_bandwidth_kbps": min_bandwidth_kbps,
                },
            ),
            follow_up,
        )
        if not submitted.effects.ok:
            self.admission.release(interface, is_ingress, decision.commitment)
        return decision, submitted

    def _offer(
        self,
        tag: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        follow_up: Command,
    ) -> SubmittedTransaction:
        """:meth:`_issue` on :data:`DEFAULT_MIN_BANDWIDTH` for ``follow_up``
        (a listing, a window auction or a path leg), refusing loudly.

        Raises:
            RuntimeError: the AS has not registered.
            AdmissionRejected: the window would oversell the interface.
        """
        if self.token_id is None:
            raise RuntimeError("AS must register before issuing assets")
        decision, submitted = self._issue(
            tag,
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            DEFAULT_MIN_BANDWIDTH,
            follow_up,
        )
        if submitted is None:
            raise self._rejected(interface, is_ingress, decision)
        return submitted

    def _list(self, marketplace: str, price_micromist: int, **extra) -> Command:
        """The follow-up that lists a freshly issued asset at a posted price."""
        return Command(
            "market",
            "create_listing",
            {
                "marketplace": marketplace,
                "asset": Result(0, "asset"),
                "price_micromist_per_unit": price_micromist,
                **extra,
            },
        )

    def issue_and_list(
        self,
        marketplace: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        price_micromist_per_unit: int,
    ) -> SubmittedTransaction:
        """Issue one large asset and put it on the market (Fig. 2, steps 2-3),
        on :data:`DEFAULT_GRANULARITY` and :data:`DEFAULT_MIN_BANDWIDTH`.

        The asset must first clear the *issued* capacity calendar for its
        interface direction (no overselling across overlapping windows);
        the listing price is the caller's base price scaled by the
        interface's scarcity multiplier at issuance time.
        """
        quoted_price = self.admission.quote(
            price_micromist_per_unit, interface, is_ingress, start, expiry
        )
        return self._offer(
            "issue",
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            self._list(marketplace, quoted_price),
        )

    def cancel_listing(self, marketplace: str, listing: str) -> SubmittedTransaction:
        """Take one of this AS's unsold listings off the market.

        The asset returns to the AS's account; the contract emits
        ``Delisted`` so off-chain indexes drop the listing incrementally.
        Issued-calendar capacity stays committed — the asset still exists
        and can be relisted.
        """
        return self._submit(
            Command(
                "market",
                "cancel_listing",
                {"marketplace": marketplace, "listing": listing},
            )
        )

    # -- auctions -----------------------------------------------------------------

    def offer_capacity(
        self,
        marketplace: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        base_price_micromist: int,
    ) -> SubmittedTransaction:
        """Put capacity on the market the way this interface is configured.

        Dispatches on the admission controller's per-interface allocation
        mode: auction-mode interfaces open a sealed-bid auction for the
        window (:meth:`open_auction`), posted-mode interfaces list at the
        scarcity-adjusted quote (:meth:`issue_and_list`).  Either way the
        issued capacity calendar is claimed first, so the two modes share
        one oversell guarantee.
        """
        auctioned = self.admission.allocation_mode(interface, is_ingress) == AUCTION
        offer = self.open_auction if auctioned else self.issue_and_list
        return offer(
            marketplace,
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            base_price_micromist,
        )

    def open_auction(
        self,
        marketplace: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        reserve_base_micromist: int,
    ) -> SubmittedTransaction:
        """Issue an asset and open a sealed-bid auction for its window, on
        :data:`DEFAULT_GRANULARITY` and :data:`DEFAULT_MIN_BANDWIDTH`.

        Like :meth:`issue_and_list`, the asset must first clear the
        *issued* capacity calendar.  The auction's reserve price is the
        scarcity-adjusted quote over ``reserve_base_micromist`` (computed
        *before* the asset claims the calendar, like a listing's price).

        Raises:
            RuntimeError: the AS has not registered.
            ValueError: the interface direction is not in auction mode.
            AdmissionRejected: the window would oversell the interface.
        """
        # Registers the book (and quotes the reserve) before the issued
        # calendar is touched, so the reserve reflects pre-auction scarcity.
        book = self.admission.open_auction(
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            reserve_base_micromist,
            min_fragment_kbps=DEFAULT_MIN_BANDWIDTH,
        )
        submitted = None
        try:
            submitted = self._offer(
                "auction",
                interface,
                is_ingress,
                bandwidth_kbps,
                start,
                expiry,
                Command(
                    "market",
                    "create_auction",
                    {
                        "marketplace": marketplace,
                        "asset": Result(0, "asset"),
                        "reserve_micromist_per_unit": book.reserve_micromist,
                    },
                ),
            )
        finally:
            if submitted is None or not submitted.effects.ok:
                # No asset, no auction: drop the book registered above.
                self.admission.close_auction(interface, is_ingress, start, expiry)
        if submitted.effects.ok:
            auction_id = submitted.effects.returns[1]["auction"]
            self.open_auctions[auction_id] = AuctionedRectangle(
                auction_id=auction_id,
                marketplace=marketplace,
                interface=interface,
                is_ingress=is_ingress,
                bandwidth_kbps=bandwidth_kbps,
                start=start,
                expiry=expiry,
                reserve_micromist_per_unit=book.reserve_micromist,
            )
        return submitted

    def _settle(
        self, command: Command, kind: str, auction_id: str, counter
    ) -> tuple[SubmittedTransaction, dict]:
        """Submit a settle, refuse loudly, count it; returns the transaction
        and what the contract reported."""
        submitted = self._submit(command)
        if not submitted.effects.ok:
            raise RuntimeError(
                f"settle of {kind} {auction_id[:8]}... failed: "
                f"{submitted.effects.error}"
            )
        result = submitted.effects.returns[0]
        counter.labels(str(self.isd_as), "cleared" if result["winners"] else "unsold").inc()
        return submitted, result

    def poll_bids(self) -> int:
        """Mirror new on-chain ``BidPlaced`` events into the local books.

        The ledger's escrowed bid objects are authoritative; the admission
        layer keeps an identical :class:`WindowAuction` book per open
        auction so supply checks and settlement previews never touch the
        object store.  Returns how many bids were mirrored.
        """
        ledger = self.executor.ledger
        events = ledger.events_since(self._bid_checkpoint, "BidPlaced")
        self._bid_checkpoint = ledger.checkpoint
        mirrored = 0
        for event in events:
            record = self.open_auctions.get(event.payload["auction"])
            if record is None:
                continue
            book = self.admission.auction_for(
                record.interface, record.is_ingress, record.start, record.expiry
            )
            if book is None:
                continue
            book.bids.append(
                Bid(
                    bidder=event.payload["bidder"],
                    bandwidth_kbps=event.payload["bandwidth_kbps"],
                    price_micromist_per_unit=event.payload[
                        "price_micromist_per_unit"
                    ],
                    seq=event.payload["seq"],
                )
            )
            mirrored += 1
        return mirrored

    def settle_due_auctions(self) -> list[SettlementRecord]:
        """Settle every open auction whose window has started.

        The periodic housekeeping entry point: call it at (or after) each
        window boundary.  For each due auction the supply is clamped by
        :meth:`~repro.admission.AdmissionController.settle_supply` — a
        window that lost active-calendar headroom since the auction opened
        sells less than was offered — and the settle transaction clears,
        pays, and refunds atomically on-chain.

        Returns:
            A :class:`SettlementRecord` per settled auction.

        Raises:
            RuntimeError: the ledger refused a settle transaction.
        """
        when = self.executor.clock.now()
        self.poll_bids()
        settled: list[SettlementRecord] = []
        for auction_id, record in list(self.open_auctions.items()):
            if record.start > when:
                continue
            supply = self.admission.settle_supply(
                record.interface,
                record.is_ingress,
                record.start,
                record.expiry,
                record.bandwidth_kbps,
            )
            submitted, result = self._settle(
                Command(
                    "market",
                    "settle_auction",
                    {
                        "marketplace": record.marketplace,
                        "auction": auction_id,
                        "supply_kbps": supply,
                    },
                ),
                "auction",
                auction_id,
                self._m_settlements,
            )
            self.admission.close_auction(
                record.interface, record.is_ingress, record.start, record.expiry
            )
            del self.open_auctions[auction_id]
            outcome = SettlementRecord(
                auction_id=auction_id,
                clearing_price_micromist=result["clearing_price_micromist"],
                awarded_kbps=result["awarded_kbps"],
                proceeds_mist=result["proceeds_mist"],
                supply_kbps=supply,
                listing=result["listing"],
                winners=result["winners"],
                submitted=submitted,
            )
            settled.append(outcome)
            key = str(self.isd_as)
            self._m_proceeds.labels(key).inc(outcome.proceeds_mist)
            self._m_awarded.labels(key).inc(outcome.awarded_kbps)
            tracing.event(
                "auction.settle",
                auction=auction_id,
                clearing_price_micromist=outcome.clearing_price_micromist,
                awarded_kbps=outcome.awarded_kbps,
                supply_kbps=supply,
                winners=len(outcome.winners),
            )
        return settled

    # -- combinatorial path auctions ------------------------------------------------

    def open_path_auction(self, marketplace: str, num_legs: int) -> SubmittedTransaction:
        """Open the shell of a combinatorial path auction (creator role).

        The creator only declares the leg count; each on-path AS then
        contributes its own legs via :meth:`contribute_path_leg` — a path
        over N AS crossings has ``2 * N`` legs (ingress and egress per
        crossing).  Bidding opens once the last leg lands.
        """
        return self._submit(
            Command(
                "market",
                "create_path_auction",
                {"marketplace": marketplace, "num_legs": num_legs},
            )
        )

    def contribute_path_leg(
        self,
        marketplace: str,
        path_auction: str,
        leg_index: int,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        base_price_micromist: int,
    ) -> SubmittedTransaction:
        """Issue this AS's leg asset and place it in the path auction, on
        :data:`DEFAULT_GRANULARITY` and :data:`DEFAULT_MIN_BANDWIDTH`.

        Like every issuance, the leg must first clear the *issued*
        capacity calendar; the leg's reserve price is the
        scarcity-adjusted quote over ``base_price_micromist``.  A ledger
        refusal hands the calendar claim straight back.

        Raises:
            RuntimeError: the AS has not registered.
            AdmissionRejected: the window would oversell the interface.
        """
        reserve = self.admission.quote(
            base_price_micromist, interface, is_ingress, start, expiry
        )
        submitted = self._offer(
            "pathleg",
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            Command(
                "market",
                "contribute_path_leg",
                {
                    "marketplace": marketplace,
                    "path_auction": path_auction,
                    "leg_index": leg_index,
                    "asset": Result(0, "asset"),
                    "reserve_micromist_per_unit": reserve,
                },
            ),
        )
        if submitted.effects.ok:
            self._m_path_legs.labels(str(self.isd_as)).inc()
        return submitted

    def settle_path_auction(
        self,
        marketplace: str,
        path_auction: str,
        supplies_kbps: list[int],
    ) -> PathSettlementRecord:
        """Submit the all-or-nothing settle transaction for a path auction.

        ``supplies_kbps`` carries every leg's live supply, each leg's
        :meth:`~repro.admission.AdmissionController.settle_supply` at its own
        AS (:func:`~repro.controlplane.settle_path_auction` collects them).
        Clears, awards, refunds, pays every leg seller, and relists
        remainders atomically on-chain.

        Raises:
            RuntimeError: the ledger refused the settle transaction.
        """
        submitted, result = self._settle(
            Command(
                "market",
                "settle_path_auction",
                {
                    "marketplace": marketplace,
                    "path_auction": path_auction,
                    "supplies_kbps": supplies_kbps,
                },
            ),
            "path auction",
            path_auction,
            self._m_path_settlements,
        )
        record = PathSettlementRecord(
            path_auction=path_auction,
            clearing_prices_micromist=result["clearing_prices_micromist"],
            proceeds_mist=result["proceeds_mist"],
            supplies_kbps=result["supplies_kbps"],
            winners=result["winners"],
            legs=result["legs"],
            submitted=submitted,
        )
        tracing.event(
            "path_auction.settle",
            path_auction=path_auction,
            num_legs=len(result["legs"]),
            winners=len(result["winners"]),
            proceeds_mist=result["proceeds_mist"],
            clearing_prices_micromist=result["clearing_prices_micromist"],
        )
        return record

    # -- redemption handling -------------------------------------------------------

    def poll_and_deliver(self) -> list[DeliveryRecord]:
        """Answer all pending redeem requests addressed to this AS (steps 6-8).

        Every request is answered on chain.  One the AS *cannot* serve —
        unusable public key, admission rejected, ResID space exhausted, or
        the delivery transaction refused by the ledger — is refused with
        that reason's code, which hands the redeemer its two assets back;
        the poll goes on, since the event checkpoint has already advanced
        and raising here would orphan every later request in the batch.

        Requests that carry the same redeem key — every redeem of one host
        transaction does — are answered under one Diffie-Hellman exchange:
        the poll owns :func:`~repro.crypto.sealing.seal`'s table and drops
        it, ephemeral and shared secrets included, when it returns.
        """
        ledger = self.executor.ledger
        events = ledger.events_since(self._last_checkpoint, "RedeemRequested")
        self._last_checkpoint = ledger.checkpoint
        records: list[DeliveryRecord] = []
        exchanges: dict = {}
        for event in events:
            if (event.payload["isd"], event.payload["asn"]) != (
                self.isd_as.isd,
                self.isd_as.asn,
            ):
                continue
            request_id = event.payload["request"]
            if request_id not in ledger.objects:
                continue  # already answered
            try:
                records.append(
                    self._deliver(ledger.get_object(request_id), exchanges)
                )
            except _Refused as refusal:
                # _deliver rolled its claims back before raising.
                records.append(self._refuse(request_id, refusal))
        return records

    def _refuse(self, request_id: str, refusal: _Refused) -> DeliveryRecord:
        args = {"request": request_id, "reason_code": refusal.code}
        submitted = self._submit(Command("asset", "refuse_redemption", args))
        if not submitted.effects.ok:
            raise RuntimeError(f"refusal failed: {submitted.effects.error}")
        self._m_deliveries.labels(str(self.isd_as), "refused").inc()
        tracing.event(
            "redemption.refused", isd_as=str(self.isd_as), detail=str(refusal), **args
        )
        return DeliveryRecord(request_id, submitted, reason_code=refusal.code)

    def _deliver(self, request, exchanges: dict) -> DeliveryRecord:
        payload = request.payload
        isd_as, ingress_if, egress_if, bw_cls, start, duration = requested_record(payload)
        expiry = start + duration
        bandwidth_kbps = payload["ingress"]["bandwidth_kbps"]
        redeemer = payload.get("redeemer", "")
        # Refuse an unusable key before claiming anything: a ValueError out of
        # seal() would come after the admissions and the ResID, and past
        # poll_and_deliver's refusal handler.
        recipient_public = payload["public_key"]
        try:
            check_group_element(recipient_public)
        except ValueError as reason:
            raise _Refused("bad_key", reason) from None
        admissions = []
        res_id = None
        try:
            # Delivered reservations claim live capacity on both crossed
            # interfaces (the active calendar is the physical backstop — the
            # redeemed assets already cleared the issued one).
            for interface, is_ingress in ((ingress_if, True), (egress_if, False)):
                decision = self.admission.admit_reservation(
                    interface, is_ingress, bandwidth_kbps, start, expiry, tag=redeemer
                )
                if not decision.admitted:
                    raise _Refused(
                        "no_capacity", self._rejected(interface, is_ingress, decision)
                    )
                admissions.append((interface, is_ingress, decision))
            try:
                res_id = self._allocator(ingress_if).allocate(start, expiry)
            except CapacityExhausted as reason:
                raise _Refused("no_resid", reason) from None
            reservation = grant_reservation(
                isd_as,
                self.autonomous_system.secret_value,
                ResInfo(ingress_if, egress_if, res_id, bw_cls, start, duration),
                self.prf_factory,
            )
            box = seal(
                recipient_public,
                reservation.to_bytes(),
                self.rng,
                delivery_context(request.object_id),
                exchanges,
            )
            submitted = self._submit(
                Command(
                    "asset",
                    "deliver_reservation",
                    {
                        "request": request.object_id,
                        "kem_share": box.kem_share,
                        "ciphertext": box.ciphertext,
                        "tag": box.tag,
                    },
                )
            )
            if not submitted.effects.ok:
                raise _Refused("delivery_aborted", submitted.effects.error)
        except RuntimeError:
            # Nothing was delivered: hand back whatever was claimed.
            for interface, is_ingress, decision in admissions:
                self.admission.release(
                    interface, is_ingress, decision.commitment, layer=ACTIVE
                )
            if res_id is not None:
                self._allocator(ingress_if).release(res_id, start, expiry)
            raise
        if self.reclamation is not None:
            # Judged from when it could first carry traffic: a late buyer's
            # reservation starts on its asset's granule, before delivery.
            self.reclamation.track(
                res_id,
                ingress_if,
                start,
                bandwidth_kbps,
                max(start, self.executor.clock.now()),
                expiry,
                [
                    (interface, is_ingress, decision.commitment.commitment_id)
                    for interface, is_ingress, decision in admissions
                ],
                tag=redeemer,
            )
        self._m_deliveries.labels(str(self.isd_as), "delivered").inc()
        tracing.event(
            "reservation.delivered",
            isd_as=str(self.isd_as),
            request=request.object_id,
            res_id=res_id,
            ingress=ingress_if,
            egress=egress_if,
            bandwidth_kbps=bandwidth_kbps,
        )
        return DeliveryRecord(
            request_id=request.object_id,
            submitted=submitted,
            delivery_id=submitted.effects.returns[0]["delivery"],
            res_id=res_id,
        )

    # -- no-show reclamation ---------------------------------------------------------

    def enable_reclamation(self, policer, marketplace: str, relist_base_micromist: int):
        """Arm the usage-feedback loop for this AS at :mod:`repro.reclaim`'s
        settings (``GRACE_SECONDS``, ``NO_SHOW_THRESHOLD``,
        ``RETAIN_HEADROOM``, ``MIN_RETAINED_KBPS``).

        ``policer`` is this AS's data-plane policer (``router.policer``):
        the loop reads each reservation's bytes with its ``usage_bytes``,
        caps a reclaimed reservation with its ``set_limit`` and has it
        ``retain`` only the reservations it still tracks.  With ``None`` the
        loop runs on an empty usage feed and demotes nothing.  Once armed,
        every delivery is tracked and :meth:`reclaim_no_shows` runs the loop,
        which relists reclaimed bandwidth on ``marketplace`` with
        ``Reclaimed`` provenance at the scarcity-adjusted quote over
        ``relist_base_micromist``.

        Returns the :class:`~repro.reclaim.ReclamationEngine`.
        """
        from repro import reclaim

        self.reclamation = reclaim.ReclamationEngine(
            self.admission, policer, reclaim.GRACE_SECONDS
        )
        self._relist_marketplace = marketplace
        self._relist_base_micromist = relist_base_micromist
        return self.reclamation

    def reclaim_no_shows(self) -> list:
        """One reclamation pass: scan tracked reservations, relist the spoils.

        Runs :meth:`~repro.reclaim.ReclamationEngine.scan` (no-op without
        :meth:`enable_reclamation`), then relists each completed
        reclamation's freed bandwidth on the deployment's marketplace.  The
        relist is an ordinary issue+list — it must clear the *issued*
        calendar like any minting, which is exactly what an overbooking
        admission policy permits; under a strict policy the relist is
        refused and recorded, never force-listed.

        Returns the completed :class:`~repro.reclaim.ReclamationEvent`\\ s.
        """
        if self.reclamation is None:
            return []
        events = self.reclamation.scan(self.executor.clock.now())
        for event in events:
            self._relist_reclaimed(event)
        return events

    def _relist_reclaimed(self, event) -> None:
        """Put one reclamation's freed rectangle back on the market."""
        start = math.ceil(event.at)
        granule = DEFAULT_GRANULARITY
        # The asset contract requires the duration to be a whole number of
        # granules: shrink the tail, never stretch past the reservation.
        expiry = start + (int(event.end) - start) // granule * granule
        freed = event.freed_kbps
        if expiry <= start or freed < 1:
            self.relisted.append((event, None, "window or bandwidth too small"))
            return
        quoted = self.admission.quote(
            self._relist_base_micromist, event.ingress_ifid, True, start, expiry
        )
        decision, submitted = self._issue(
            "reclaim",
            event.ingress_ifid,
            True,
            freed,
            start,
            expiry,
            min(DEFAULT_MIN_BANDWIDTH, freed),
            self._list(
                self._relist_marketplace,
                quoted,
                provenance={
                    "res_id": event.res_id,
                    "original_holder": event.tag,
                    "reclaimed_kbps": freed,
                    "observed_kbps": event.observed_kbps,
                },
            ),
        )
        if submitted is None:
            self.relisted.append((event, None, decision.reason))
        elif not submitted.effects.ok:
            self.relisted.append((event, None, str(submitted.effects.error)))
        else:
            self.relisted.append(
                (event, submitted.effects.returns[1]["listing"], "relisted")
            )

    def _allocator(self, ingress_if: int) -> ResIdAllocator:
        allocator = self._allocators.get(ingress_if)
        if allocator is None:
            allocator = ResIdAllocator(RESID_CAPACITY)
            self._allocators[ingress_if] = allocator
        return allocator
