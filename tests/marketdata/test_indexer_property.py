"""Property: the incremental index IS the full-ledger scan.

Hypothesis drives arbitrary interleavings of list / buy (all split
shapes) / cancel / seller-side asset splits / relists — with the indexer
syncing incrementally after every step — and checks that the index always
answers exactly what a naive rescan of the object store would: the same
live listing set, and for probe rectangles the same cheapest listing,
price, and aligned window.

Between those steps the same seller opens window auctions and 2- / 4-leg path
auctions (a shell first, then one leg a rule, so "open, not fully
contributed" is a state the machine rests in), two funded hosts bid into
whatever is biddable and the seller settles.  After every step a *fresh*
:class:`HostClient` per bidder account has to answer — open auctions in
arrival order with their legs, the auction found for a probe rectangle, the
bidder's settlement — exactly what a scan of the live ``market::Auction`` /
``market::PathAuction`` objects and of the ``*Settled`` events says.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tests.marketdata.conftest import RawMarket

from repro.clock import SimClock
from repro.contracts.market import AUCTION_TYPE, LISTING_TYPE, PATH_AUCTION_TYPE
from repro.controlplane import BidSettlement, HostClient
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.committee import Committee
from repro.ledger.executor import LedgerExecutor
from repro.marketdata import ListingQuery, MarketIndexer, naive_best_listing
from repro.marketdata.naive import iter_listings
from repro.scion.addresses import IsdAs
from repro.scion.paths import AsCrossing

AS19 = IsdAs(1, 9)
INTERFACES = ((1, True), (1, False), (2, True))
GRANULARITIES = (30, 60, 120)
HORIZON = 7200
MIN_BW = 100
# Auctioned rectangles: every leg of a path auction covers one window; a path's
# legs are its crossings' (ingress, True), (egress, False) in path order.
AUCTION_WINDOW = (600, 1200)
AUCTION_BW = 4_000
RESERVE = 40
CROSSINGS = (AsCrossing(AS19, 1, 2, ()), AsCrossing(AS19, 2, 1, ()))
LEG_DIRECTIONS = tuple(
    direction
    for crossing in CROSSINGS
    for direction in ((crossing.ingress, True), (crossing.egress, False))
)
# What an auctioned leg says on chain: the ``PathAuction`` object's leg entry,
# and an ``Auction`` object's own fields beside its asset's rectangle.
LEG_FIELDS = (
    "asset", "seller", "reserve_micromist_per_unit", "share_cap_kbps",
    "isd", "asn", "interface", "is_ingress", "bandwidth_kbps", "start",
    "expiry", "granularity", "min_bandwidth_kbps",
)


def _leg(snapshot: dict | None) -> dict | None:
    return None if snapshot is None else {key: snapshot[key] for key in LEG_FIELDS}


def _covers(legs, directions, start, expiry, bandwidth_kbps) -> bool:
    """Brute force: fully contributed, the wanted directions in path order,
    every leg's window and ``[minimum, total]`` bandwidth around the request."""
    return (
        None not in legs
        and [(leg["interface"], leg["is_ingress"]) for leg in legs] == list(directions)
        and all(
            (leg["isd"], leg["asn"]) == (AS19.isd, AS19.asn)
            and leg["start"] <= start
            and expiry <= leg["expiry"]
            and leg["min_bandwidth_kbps"] <= bandwidth_kbps <= leg["bandwidth_kbps"]
            for leg in legs
        )
    )


class IndexerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.market = RawMarket(seed=7)
        self.indexer = MarketIndexer(self.market.ledger, self.market.marketplace)
        self.rng = random.Random(1234)
        self.executor = LedgerExecutor(
            self.market.ledger, Committee(seed=7), SimClock(0.0)
        )
        self.bidders = []
        for name in ("alice", "bob"):
            host = HostClient(
                Account.generate(self.rng, name), self.executor, random.Random(name)
            )
            host.fund(sui_to_mist(100))
            self.bidders.append(host)

    # -- helpers ---------------------------------------------------------------

    def _listings(self):
        return sorted(
            (
                obj
                for obj in self.market.ledger.objects.values()
                if obj.type_tag == LISTING_TYPE
            ),
            key=lambda obj: obj.object_id,
        )

    def _pick_listing(self, index: int):
        listings = self._listings()
        if not listings:
            return None
        return listings[index % len(listings)]

    # -- rules -----------------------------------------------------------------

    @rule(
        slot=st.integers(0, 40),
        slots=st.integers(1, 30),
        granularity=st.sampled_from(GRANULARITIES),
        interface=st.sampled_from(INTERFACES),
        bw=st.sampled_from([1_000, 10_000, 50_000]),
        price=st.integers(10, 200),
    )
    def list_asset(self, slot, slots, granularity, interface, bw, price):
        start = slot * granularity
        expiry = min(start + slots * granularity, HORIZON)
        if expiry <= start:
            return
        self.market.issue_and_list(
            interface[0], interface[1], bw, start, expiry,
            price=price, granularity=granularity,
        )

    @rule(
        pick=st.integers(0, 1_000_000),
        start_frac=st.floats(0.0, 1.0),
        slots=st.integers(1, 20),
        bw_frac=st.floats(0.1, 1.0),
    )
    def buy_rectangle(self, pick, start_frac, slots, bw_frac):
        listing = self._pick_listing(pick)
        if listing is None:
            return
        asset = self.market.ledger.objects.get(listing.payload["asset"])
        if asset is None:
            return
        payload = asset.payload
        granularity = payload["granularity"]
        total_slots = (payload["expiry"] - payload["start"]) // granularity
        offset = int(start_frac * (total_slots - 1)) if total_slots > 1 else 0
        start = payload["start"] + offset * granularity
        expiry = min(start + slots * granularity, payload["expiry"])
        bw = max(MIN_BW, int(payload["bandwidth_kbps"] * bw_frac) // 100 * 100)
        remainder = payload["bandwidth_kbps"] - bw
        if bw > payload["bandwidth_kbps"] or 0 < remainder < MIN_BW:
            return
        # The transaction may still abort (e.g. emptied window); aborts
        # emit no events, so both sides of the comparison are unaffected.
        self.market.buy(listing.object_id, start, expiry, bw)

    @rule(pick=st.integers(0, 1_000_000))
    def cancel_listing(self, pick):
        listing = self._pick_listing(pick)
        if listing is None:
            return
        self.market.cancel(listing.object_id)

    @rule(pick=st.integers(0, 1_000_000), price=st.integers(10, 300))
    def cancel_split_and_relist(self, pick, price):
        """Seller takes a listing back, splits the asset, relists the parts."""
        listing = self._pick_listing(pick)
        if listing is None:
            return
        cancelled = self.market.cancel(listing.object_id)
        if not cancelled.ok:
            return
        asset_id = cancelled.returns[0]["asset"]
        asset = self.market.ledger.objects[asset_id]
        payload = asset.payload
        granularity = payload["granularity"]
        slots = (payload["expiry"] - payload["start"]) // granularity
        pieces = [asset_id]
        if slots >= 2:
            split = self.market.try_run(
                self.market.seller, "asset", "split_time",
                asset=asset_id,
                split_at=payload["start"] + (slots // 2) * granularity,
            )
            if split.ok:
                pieces.append(split.returns[0]["second"])
        for piece in pieces:
            self.market.run(
                self.market.seller, "market", "create_listing",
                marketplace=self.market.marketplace, asset=piece,
                price_micromist_per_unit=price,
            )

    def _issue(self, interface: int, is_ingress: bool, bandwidth_kbps: int) -> str:
        return self.market.run(
            self.market.seller, "asset", "issue",
            token=self.market.token, bandwidth_kbps=bandwidth_kbps,
            start=AUCTION_WINDOW[0], expiry=AUCTION_WINDOW[1], interface=interface,
            is_ingress=is_ingress, granularity=60, min_bandwidth_kbps=MIN_BW,
        ).returns[0]["asset"]

    def _open(self) -> list[tuple[str, bool, tuple]]:
        """``(id, is a path auction, legs in path order)`` of every live
        auction object, in the order their ``*Opened`` events arrived."""
        ledger = self.market.ledger
        found = []
        for event in ledger.events:
            if event.event_type not in ("AuctionOpened", "PathAuctionOpened"):
                continue
            auction = ledger.objects.get(
                event.payload.get("auction") or event.payload.get("path_auction")
            )
            if auction is None:
                continue
            if auction.type_tag == AUCTION_TYPE:
                asset = ledger.objects[auction.payload["asset"]]
                legs = (_leg({**asset.payload, **auction.payload}),)
            else:
                legs = tuple(_leg(leg) for leg in auction.payload["legs"])
            found.append((auction.object_id, auction.type_tag == PATH_AUCTION_TYPE, legs))
        live = [
            obj.object_id
            for obj in ledger.objects.values()
            if obj.type_tag in (AUCTION_TYPE, PATH_AUCTION_TYPE)
        ]
        assert sorted(live) == sorted(auction_id for auction_id, _, _ in found)
        return found

    @rule(
        direction=st.sampled_from(LEG_DIRECTIONS),
        bw=st.sampled_from([AUCTION_BW, AUCTION_BW // 2]),
        share_cap=st.sampled_from([None, 1_500]),
    )
    def open_window_auction(self, direction, bw, share_cap):
        self.market.run(
            self.market.seller, "market", "create_auction",
            marketplace=self.market.marketplace, asset=self._issue(*direction, bw),
            reserve_micromist_per_unit=RESERVE, share_cap_kbps=share_cap,
        )

    @rule(legs=st.sampled_from([2, 4]))
    def open_path_shell(self, legs):
        self.market.run(
            self.market.seller, "market", "create_path_auction",
            marketplace=self.market.marketplace, num_legs=legs,
        )

    @rule(pick=st.integers(0, 1_000_000), narrow=st.booleans())
    def contribute_one_leg(self, pick, narrow):
        """The next missing leg of one open shell (highest index first, so a
        shell whose *first* leg is still missing is among the states)."""
        shells = [
            (auction_id, legs) for auction_id, is_path, legs in self._open()
            if is_path and None in legs
        ]
        if not shells:
            return
        auction_id, legs = shells[pick % len(shells)]
        index = max(i for i, leg in enumerate(legs) if leg is None)
        self.market.run(
            self.market.seller, "market", "contribute_path_leg",
            marketplace=self.market.marketplace, path_auction=auction_id,
            leg_index=index,
            asset=self._issue(
                *LEG_DIRECTIONS[index], AUCTION_BW // 2 if narrow else AUCTION_BW
            ),
            reserve_micromist_per_unit=RESERVE + index,
        )

    @rule(
        pick=st.integers(0, 1_000_000),
        bids=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from([500, 1_500, 2_500]),
                st.sampled_from([10, 45, 60, 90]),  # 10: under every reserve
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def place_bids(self, pick, bids):
        biddable = [entry for entry in self._open() if None not in entry[2]]
        if not biddable:
            return
        auction_id, is_path, legs = biddable[pick % len(biddable)]
        seconds = AUCTION_WINDOW[1] - AUCTION_WINDOW[0]
        for bidder, bw, unit_price in bids:
            host = self.bidders[bidder]
            place = host.place_path_bid if is_path else host.place_bid
            budget = bw * seconds * len(legs) * unit_price // 1_000_000
            if unit_price < max(leg["reserve_micromist_per_unit"] for leg in legs):
                with pytest.raises(ValueError, match="reserve"):
                    place(self.market.marketplace, auction_id, bw, budget)
                continue
            placed = place(self.market.marketplace, auction_id, bw, budget)
            fits = bw <= min(leg["bandwidth_kbps"] for leg in legs)
            assert placed.effects.ok == fits, placed.effects.error

    @rule(pick=st.integers(0, 1_000_000), clamp=st.sampled_from([None, 1_000]))
    def settle_an_auction(self, pick, clamp):
        biddable = [entry for entry in self._open() if None not in entry[2]]
        if not biddable:
            return
        auction_id, is_path, legs = biddable[pick % len(biddable)]
        if is_path:
            self.market.run(
                self.market.seller, "market", "settle_path_auction",
                marketplace=self.market.marketplace, path_auction=auction_id,
                supplies_kbps=None if clamp is None else [clamp] * len(legs),
            )
        else:
            self.market.run(
                self.market.seller, "market", "settle_auction",
                marketplace=self.market.marketplace, auction=auction_id,
                supply_kbps=clamp,
            )

    @rule()
    def sync_now(self):
        """Extra mid-sequence syncs: incremental application at odd points."""
        self.indexer.sync()

    # -- the property ------------------------------------------------------------

    @invariant()
    def index_matches_full_rescan(self):
        if not hasattr(self, "market"):
            return
        self.indexer.sync()
        indexed = {
            record.listing_id: record for record in self.indexer.listings()
        }
        scanned = {
            record.listing_id: record
            for record in iter_listings(self.market.ledger, self.market.marketplace)
        }
        assert indexed == scanned
        for interface, is_ingress in INTERFACES:
            for _ in range(3):
                start = self.rng.randrange(0, HORIZON, 30)
                expiry = start + self.rng.randrange(30, 3600, 30)
                probe = ListingQuery(
                    isd_as=AS19, interface=interface, is_ingress=is_ingress,
                    start=start, expiry=expiry,
                    bandwidth_kbps=self.rng.choice([MIN_BW, 1_000, 10_000, 50_000]),
                    exact_window=self.rng.random() < 0.2,
                )
                fast = self.indexer.best(probe)
                slow = naive_best_listing(
                    self.market.ledger, self.market.marketplace, probe
                )
                if slow is None:
                    assert fast is None, probe
                else:
                    assert fast is not None, probe
                    assert fast.listing.listing_id == slow.listing.listing_id, probe
                    assert (fast.price_mist, fast.start, fast.expiry) == (
                        slow.price_mist, slow.start, slow.expiry,
                    ), probe

    # -- the same property, for auctions -----------------------------------------

    def _reads(self, host):
        """The two auction reads as ``host`` answers them: every open auction
        as ``(id, is a path auction, legs)`` in arrival order, and the id of
        the auction found for ``(directions, start, expiry, kbps)``."""
        index = host.indexer(self.market.marketplace)
        opened = [
            (auction.auction_id, auction.is_path, auction.legs)
            for auction in index.open_auctions()
        ]

        def find(directions, start, expiry, kbps):
            found = index.find_auction(
                [(AS19.isd, AS19.asn, *direction) for direction in directions],
                start, expiry, kbps,
            )
            return None if found is None else found.auction_id

        return opened, find

    def _auction_reads_match(self, host, opened, settlements) -> None:
        """``host`` answers what the scan does: open auctions with their legs
        in arrival order, the earliest open auction covering a probe, its own
        outcome in every settled one."""
        marketplace = self.market.marketplace
        answered, find = self._reads(host)
        for is_path in (False, True):  # each kind in its arrival order
            assert [entry for entry in answered if entry[1] == is_path] == [
                entry for entry in opened if entry[1] == is_path
            ]
        probes = [
            (*AUCTION_WINDOW, 2_000),
            (*AUCTION_WINDOW, 3_000),  # wider than a narrow leg
            (AUCTION_WINDOW[0] + 60, AUCTION_WINDOW[1] - 60, MIN_BW),
            (AUCTION_WINDOW[0], AUCTION_WINDOW[1] + 60, 1_000),  # past every leg
        ]
        wanted = [*([d] for d in LEG_DIRECTIONS), LEG_DIRECTIONS[:2], LEG_DIRECTIONS]
        for probe in probes:
            for directions in wanted:
                assert find(directions, *probe) == next(
                    (i for i, _, legs in opened if _covers(legs, directions, *probe)),
                    None,
                ), (directions, probe)
        for auction_id, is_path, _ in opened:
            wait = host.await_path_settle if is_path else host.await_settle
            assert wait(marketplace, auction_id) is None
        mine = host.account.address
        for auction_id, event in settlements.items():
            payload = event.payload
            wins = [w for w in payload["winners"] if w["bidder"] == mine]
            losses = [l for l in payload["losers"] if l["bidder"] == mine]
            is_path = event.event_type == "PathAuctionSettled"
            wait = host.await_path_settle if is_path else host.await_settle
            assert wait(marketplace, auction_id) == BidSettlement(
                auction=auction_id,
                won=bool(wins),
                bandwidth_kbps=sum(w["bandwidth_kbps"] for w in wins),
                paid_mist=sum(w["paid_mist"] for w in wins),
                refund_mist=sum(b["refund_mist"] for b in wins + losses),
                clearing_prices_micromist=tuple(
                    payload["clearing_prices_micromist"]
                    if is_path
                    else [payload["clearing_price_micromist"]]
                ),
                assets=tuple(
                    asset
                    for w in wins
                    for asset in (w["assets"] if is_path else [w["asset"]])
                ),
                reasons=tuple(l["reason"] for l in losses),
            )

    @invariant()
    def a_fresh_host_sees_the_auctions_the_ledger_holds(self):
        if not hasattr(self, "market"):
            return
        opened = self._open()
        settlements = {
            event.payload.get("auction") or event.payload["path_auction"]: event
            for event in self.market.ledger.events
            if event.event_type in ("AuctionSettled", "PathAuctionSettled")
        }
        assert not set(settlements) & {auction_id for auction_id, _, _ in opened}
        for bidder in self.bidders:
            # on its own a fresh client folds the log from event 0; the
            # machine's index has been folding it a step at a time
            fresh = HostClient(bidder.account, self.executor)
            self._auction_reads_match(fresh, opened, settlements)
            fresh.attach_indexer(self.market.marketplace, self.indexer)
            self._auction_reads_match(fresh, opened, settlements)


IndexerMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=18, deadline=None
)
TestIndexerMatchesNaive = IndexerMachine.TestCase


def test_every_auction_state_is_visited_once_by_hand():
    """The random walk above reaches a settled path auction with a winner and
    a loser only now and then; this one script does, checking after each step:
    a shell with no leg, with its *last* leg only, fully contributed, bid into
    by both hosts, settled short of supply — beside a window auction doing the
    same."""
    machine = IndexerMachine()
    machine.setup()

    def step(rule, **arguments):
        rule(**arguments)
        machine.index_matches_full_rescan()
        machine.a_fresh_host_sees_the_auctions_the_ledger_holds()

    step(machine.open_path_shell, legs=2)
    step(machine.open_window_auction, direction=(1, True), bw=AUCTION_BW, share_cap=None)
    step(machine.contribute_one_leg, pick=0, narrow=True)
    assert [legs[0] for _, is_path, legs in machine._open() if is_path] == [None]
    step(machine.open_path_shell, legs=4)
    step(machine.contribute_one_leg, pick=0, narrow=False)
    both = [(0, 1_500, 90), (1, 1_500, 60), (1, 500, 10)]
    step(machine.place_bids, pick=0, bids=both)  # the window auction
    step(machine.place_bids, pick=1, bids=both)  # the two-leg path
    step(machine.settle_an_auction, pick=1, clamp=1_500)
    step(machine.settle_an_auction, pick=0, clamp=1_500)
    settled = {
        event.event_type: event.payload
        for event in machine.market.ledger.events
        if event.event_type.endswith("AuctionSettled")
    }
    assert sorted(settled) == ["AuctionSettled", "PathAuctionSettled"]
    assert all(p["winners"] and p["losers"] for p in settled.values())
    assert [None in legs for _, _, legs in machine._open()] == [True]
