"""Every entry point submits exactly the transactions it submitted before.

``run_scenario`` drives one seeded script over a 4-AS chain through every
control-plane entry point that submits a transaction — host side: ``fund``,
``consolidate_coins``, ``plan_path`` + ``atomic_buy_and_redeem`` (unguarded,
guarded, with a vanished listing substituted, and a ``BudgetExceeded`` that
submits nothing), ``acquire`` (bid and posted arm), ``place_bid`` /
``await_settle`` / ``redeem_pair``, ``acquire_path`` (path-bid and posted arm),
``place_path_bid`` / ``await_path_settle`` / ``redeem_path``, a two-leg
``transfer`` with a fused leg plus its preflight and raced aborts; AS side:
``register``, ``register_as_seller``, ``issue_and_list`` (admitted, rejected,
ledger-refused), ``cancel_listing``, ``offer_capacity`` in both modes,
``open_auction``, ``settle_due_auctions``, ``open_path_auction``,
``contribute_path_leg``, ``settle_path_auction``, ``poll_and_deliver`` and
``reclaim_no_shows`` with its relist.

A tap on ``LedgerExecutor.submit`` records, per transaction, the sender, the
``contract.function`` list, a digest of the canonicalised arguments, status,
error, gas, event types and a digest of the event payloads; the end state adds
every host's decrypted reservations, every AS's ``undeliverable`` and
``relisted`` lists, all coin balances and, per AS, a digest of what its
calendars *answer* (capacity, commitment rows, the level between every two
neighbouring endpoints — read through ``commitments()`` and ``peak_commitment``
alone, so no calendar layout is in it and the two arms must agree; re-recorded
once, in PR 21, from a digest of ``controller_fingerprint``'s layout-bound
tuples: eight values).  The recording committed beside this file was made
at the commit *before* ``controlplane/`` got its single plan-to-transaction
lowering (PR 18), with that commit's ``src/`` on the path; today's code has to
reproduce it byte for byte on monolithic and on sharded calendars.  Re-recorded
once since, in PR 19, when the sealed bytes of a delivery and the payload of
``ReservationDelivered`` were meant to change: 30 ``asset.deliver_reservation``
rows a calendar, argument digest and event-payload digest only.

To re-record (only when a submitted transaction is *meant* to change — a new
command, a different argument, another gas schedule — never to make a refactor
pass)::

    PYTHONPATH=src:. python tests/controlplane/test_transaction_equivalence.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import re

import pytest

from tests.conftest import T0

from repro.admission import AdmissionRejected, ScarcityPricer
from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import (
    deploy_market,
    execute_transfer,
    open_path_auction,
    settle_path_auction,
)
from repro.invariants import check
from repro.ledger.executor import LedgerExecutor
from repro.ledger.transactions import Command, Result, Transaction
from repro.marketdata import BudgetExceeded, ListingQuery, PathSpec
from repro.netsim import linear_path
from repro.scion import as_crossings
from repro.telemetry import ExperimentTelemetry, use_trace
from repro.transfers import DeadlineTransfer, TransferAborted, TransferPlanner

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "transaction_equivalence.json"
CALENDARS = {"monolithic": None, "sharded": 300.0}
SEED = 1810
ASSET_KBPS = 100_000
POSTED = (T0 + 600, T0 + 1200)  # bought, never used, reclaimed at +610
SLOT = 600  # transfer fragments: slots 2 and 3 touch, slot 5 stands alone
AUCTION = (T0 + 3600, T0 + 4200)
PATH_AUCTION = (T0 + 4200, T0 + 4800)


def _canonical(value):
    """JSON-ready form: bytes as hex, ``Result`` by index and key."""
    if isinstance(value, bytes):
        return {"hex": value.hex()}
    if isinstance(value, Result):
        return {"result": [value.command_index, value.key]}
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(value) -> str:
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.blake2s(text.encode(), digest_size=12).hexdigest()


def _answers(calendar) -> list:
    """What a calendar answers, whatever its layout: capacity, commitment rows,
    and the level over every elementary interval between their endpoints."""
    rows = sorted(
        [c.commitment_id, c.bandwidth_kbps, float(c.start), float(c.end), c.tag]
        for c in calendar.commitments()
    )
    edges = sorted({edge for row in rows for edge in row[2:4]})
    levels = [int(calendar.peak_commitment(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    return [calendar.capacity_kbps, rows, edges, levels]


def _row(reservation) -> list:
    """A decrypted reservation: where, its ResInfo fields, its key."""
    info = reservation.resinfo
    return [
        str(reservation.isd_as), info.ingress, info.egress, info.res_id,
        info.bw_cls, info.start, info.duration, reservation.auth_key.hex(),
    ]


@contextlib.contextmanager
def _tap(log: list):
    """Log every transaction any executor submits while the block runs."""
    original = LedgerExecutor.submit

    def submit(self, transaction):
        submitted = original(self, transaction)
        effects = submitted.effects
        log.append(
            [
                transaction.sender,
                " ".join(f"{c.contract}.{c.function}" for c in transaction.commands),
                _digest([command.args for command in transaction.commands]),
                effects.status,
                effects.error,
                effects.gas.total_sui,
                " ".join(event.event_type for event in effects.events),
                _digest([event.payload for event in effects.events]),
            ]
        )
        return submitted

    LedgerExecutor.submit = submit
    try:
        yield
    finally:
        LedgerExecutor.submit = original


class _Script:
    """The scenario's state: one deployment, its hosts, what they collected."""

    def __init__(self, shard_seconds) -> None:
        self.clock = SimClock(float(T0))
        topology, path = linear_path(4, timestamp=T0)
        self.crossings = as_crossings(path)
        self.deployment = deploy_market(
            topology,
            clock=self.clock,
            seed=SEED,
            asset_start=T0,
            asset_duration=3600,
            asset_bandwidth_kbps=ASSET_KBPS,
            interface_capacity_kbps=4 * ASSET_KBPS,
            pricer=ScarcityPricer(),
            shard_seconds=shard_seconds,
            # every transit AS enters the path on interface 2
            auction_interfaces={(2, True)},
            reclamation={"interval": 0.25, "grace_seconds": 5.0},
        )
        self.marketplace = self.deployment.marketplace
        self.hosts: dict = {}
        self.collected: dict = {}
        self.notes: dict = {}

    def service(self, crossing):
        return self.deployment.service(crossing.isd_as)

    def host(self, name: str, funding_sui: float = 100.0):
        self.hosts[name] = self.deployment.new_host(funding_sui=funding_sui, name=name)
        self.collected[name] = []
        return self.hosts[name]

    def deliver(self, *names: str) -> None:
        """Every on-path AS answers its redeem requests; the hosts decrypt."""
        for crossing in self.crossings:
            self.service(crossing).poll_and_deliver()
        for name in names:
            for reservation in self.hosts[name].collect_reservations():
                self.collected[name].append(_row(reservation))

    def spec(self, window, bandwidth_kbps, crossings=None, **options) -> PathSpec:
        crossings = self.crossings if crossings is None else crossings
        return PathSpec.from_crossings(crossings, *window, bandwidth_kbps, **options)

    def relist(self, crossing, price_micromist: int) -> None:
        """The seller pulls the crossing's cheapest posted ingress listing for
        the posted window and lists the same asset again at ``price_micromist``."""
        self.deployment.indexer.sync()
        victim = self.deployment.indexer.best(
            ListingQuery(crossing.isd_as, crossing.ingress, True, *POSTED, 4_000)
        ).listing.listing_id
        seller = self.service(crossing)
        cancelled = seller.cancel_listing(self.marketplace, victim)
        relisted = seller.executor.submit(
            Transaction(
                sender=seller.account.address,
                commands=[
                    Command(
                        "market",
                        "create_listing",
                        {
                            "marketplace": self.marketplace,
                            "asset": cancelled.effects.returns[0]["asset"],
                            "price_micromist_per_unit": price_micromist,
                        },
                    )
                ],
            )
        )
        assert relisted.effects.ok, relisted.effects.error

    # -- the script, in simulated-time order ----------------------------------

    def issuance(self) -> None:
        first = self.crossings[0]
        seller = self.service(first)
        listed = seller.issue_and_list(
            self.marketplace, first.egress, False, 20_000, T0, T0 + 1200, 40, 120, 500
        )
        assert listed.effects.ok, listed.effects.error
        with pytest.raises(AdmissionRejected):
            seller.issue_and_list(
                self.marketplace, first.egress, False, 5 * ASSET_KBPS, T0, T0 + 1200, 40
            )
        # 7 s granules do not divide the window: the asset contract refuses,
        # and the calendar claim must come back
        refused = seller.issue_and_list(
            self.marketplace, first.egress, False, 20_000, T0, T0 + 1200, 40, 7
        )
        assert not refused.effects.ok
        withdrawn = seller.cancel_listing(
            self.marketplace, listed.effects.returns[1]["listing"]
        )
        assert withdrawn.effects.ok, withdrawn.effects.error

    def posted_purchases(self) -> None:
        alice = self.host("alice")
        plan = alice.plan_path(self.marketplace, self.spec(POSTED, 4_000))
        assert alice.atomic_buy_and_redeem(self.marketplace, plan).effects.ok
        self.deliver("alice")

        bob = self.host("bob")
        plan = bob.plan_path(self.marketplace, self.spec(POSTED, 2_000, flex_start=120))
        guarded = bob.atomic_buy_and_redeem(
            self.marketplace, plan, max_price_mist=plan.price_mist
        )
        assert guarded.effects.ok, guarded.effects.error

        # the planned listing vanishes, an equally priced one takes its place
        carol = self.host("carol")
        plan = carol.plan_path(self.marketplace, self.spec(POSTED, 4_000))
        self.relist(self.crossings[1], 50)
        substituted = carol.atomic_buy_and_redeem(
            self.marketplace, plan, max_price_mist=plan.price_mist
        )
        assert substituted.effects.ok, substituted.effects.error
        self.deliver("bob", "carol")

        # ... and a dearer one: the guard refuses before anything is submitted
        dave = self.host("dave")
        plan = dave.plan_path(self.marketplace, self.spec(POSTED, 4_000))
        self.relist(self.crossings[2], 400)
        checkpoint = self.deployment.ledger.checkpoint
        with pytest.raises(BudgetExceeded):
            dave.atomic_buy_and_redeem(
                self.marketplace, plan, max_price_mist=plan.price_mist
            )
        assert self.deployment.ledger.checkpoint == checkpoint

        # no path auction is open: acquire_path falls through to the posted book
        judy = self.host("judy")
        bought = judy.acquire_path(
            self.marketplace, self.crossings[:2], *POSTED, 1_000, 10**9, flex_start=60
        )
        assert bought.mode == "bought" and bought.submitted.effects.ok
        self.notes["judy"] = [bought.reference, bought.price_mist]
        self.deliver("judy")

    def reclaim(self) -> None:
        """Nobody sent a byte: past the grace every AS takes the bandwidth back."""
        self.clock.set(float(POSTED[0] + 10))
        for crossing in self.crossings:
            assert self.service(crossing).reclaim_no_shows()

    def transfers(self) -> None:
        # Fragments cheaper than the seed listing: slots 2+3 fuse into one
        # leg of two pieces a direction, slot 5 is a second leg of one.
        for crossing in self.crossings:
            for is_ingress in (True, False):
                interface = crossing.ingress if is_ingress else crossing.egress
                for slot, price in ((2, 20), (3, 24), (5, 22)):
                    listed = self.service(crossing).issue_and_list(
                        self.marketplace, interface, is_ingress, 40_000,
                        T0 + slot * SLOT, T0 + (slot + 1) * SLOT, price,
                    )
                    assert listed.effects.ok, listed.effects.error
        request = dict(
            bytes_total=int(10_000 * 125 * SLOT * 2.95), deadline=T0 + 3600,
            release=T0 + 2 * SLOT, max_rate_kbps=10_000,
        )
        mover = self.host("mover", 1_000.0)
        outcome = execute_transfer(self.deployment, mover, self.crossings, **request)
        self.notes["transfer"] = [
            [leg.start, leg.expiry, leg.rate_kbps, len(leg.hops[0].ingress_pieces)]
            for leg in outcome.plan.legs
        ]
        self.collected["mover"].extend(_row(r) for r in outcome.reservations)

        # A planned listing is withdrawn between planning and execution: the
        # preflight aborts without a transaction, without it the ledger does.
        victim = self.host("victim", 1_000.0)
        plan = TransferPlanner(victim.indexer(self.marketplace)).plan(
            DeadlineTransfer(crossings=tuple(self.crossings), **request)
        )
        withdrawn = plan.legs[0].hops[0].ingress_pieces[0].listing_id
        assert self.service(self.crossings[0]).cancel_listing(
            self.marketplace, withdrawn
        ).effects.ok
        checkpoint = self.deployment.ledger.checkpoint
        with pytest.raises(TransferAborted) as preflighted:
            victim.execute_transfer_plan(self.marketplace, plan)
        assert preflighted.value.submitted is None
        assert self.deployment.ledger.checkpoint == checkpoint
        with pytest.raises(TransferAborted) as raced:
            victim.execute_transfer_plan(self.marketplace, plan, preflight=False)
        assert not raced.value.submitted.effects.ok

    def auctions(self) -> None:
        bottleneck, quiet = self.crossings[1], self.crossings[2]
        seller = self.service(bottleneck)
        # auction mode on the ingress, posted mode on the egress
        opened = seller.offer_capacity(
            self.marketplace, bottleneck.ingress, True, 6_000, *AUCTION, 50
        )
        assert opened.effects.ok, opened.effects.error
        auction = opened.effects.returns[1]["auction"]
        listed = seller.offer_capacity(
            self.marketplace, bottleneck.egress, False, 10_000, *AUCTION, 50
        )
        assert listed.effects.ok and not listed.effects.returns[1].get("auction")
        unsold = self.service(quiet).open_auction(
            self.marketplace, quiet.ingress, True, 3_000, *AUCTION, 50, 60, 200
        )
        assert unsold.effects.ok, unsold.effects.error

        # frank's 11,000 MIST cover his two escrows and little else
        erin, frank, grace = self.host("erin"), self.host("frank", 0.000011), self.host("grace")
        bid = erin.acquire(
            self.marketplace, bottleneck.isd_as, bottleneck.ingress, True,
            *AUCTION, 2_500, 9_000,
        )
        assert bid.mode == "bid" and bid.reference == auction
        assert bid.submitted.effects.ok, bid.submitted.effects.error
        for bandwidth_kbps, budget_mist in ((2_500, 6_000), (2_000, 4_500)):
            assert frank.place_bid(
                self.marketplace, auction, bandwidth_kbps, budget_mist
            ).effects.ok
        assert grace.place_bid(self.marketplace, auction, 3_000, 300).effects.ok
        assert erin.await_settle(self.marketplace, auction) is None

        # the combinatorial auction opens and takes its bids before either settles
        handle = open_path_auction(
            self.deployment, self.crossings, *PATH_AUCTION, 6_000, 50, 60, 200
        )
        heidi, ivan = self.host("heidi"), self.host("ivan")
        path_bid = heidi.acquire_path(
            self.marketplace, self.crossings, *PATH_AUCTION, 2_000, 5_000
        )
        assert path_bid.mode == "path_bid" and path_bid.reference == handle.path_auction
        assert path_bid.submitted.effects.ok, path_bid.submitted.effects.error
        assert ivan.place_path_bid(
            self.marketplace, handle.path_auction, 5_000, 2_000
        ).effects.ok

        self.clock.set(float(AUCTION[0]))
        for crossing in (bottleneck, quiet):
            settled = self.service(crossing).settle_due_auctions()
            assert len(settled) == 1
        outcomes = {
            name: self.hosts[name].await_settle(self.marketplace, auction)
            for name in ("erin", "frank", "grace")
        }
        self.notes["auction"] = {
            name: [
                outcome.won, outcome.bandwidth_kbps, outcome.paid_mist,
                outcome.refund_mist, outcome.clearing_price_micromist,
                list(outcome.assets), list(outcome.reasons),
            ]
            for name, outcome in outcomes.items()
        }
        for name, outcome in outcomes.items():
            if not outcome.won:
                continue
            egress = self.hosts[name].acquire(
                self.marketplace, bottleneck.isd_as, bottleneck.egress, False,
                *AUCTION, outcome.bandwidth_kbps, 10**9,
            )
            assert egress.mode == "bought" and egress.submitted.effects.ok
            (ingress_asset,) = outcome.assets
            egress_asset = egress.submitted.effects.returns[0]["asset"]
            assert self.hosts[name].redeem_pair(ingress_asset, egress_asset).effects.ok
        # a spent pair cannot be redeemed twice: the ledger aborts, no request goes out
        assert not erin.redeem_pair(ingress_asset, egress_asset).effects.ok
        self.deliver("erin", "frank", "grace")
        # frank's refunds came back as fresh coins: the payment coin alone no
        # longer covers an escrow, so the bid merges them in first
        assert frank.place_path_bid(
            self.marketplace, handle.path_auction, 1_000, 2_000
        ).effects.ok

        self.clock.set(float(PATH_AUCTION[0]))
        settle_path_auction(self.deployment, handle)
        path_outcomes = {
            name: self.hosts[name].await_path_settle(self.marketplace, handle.path_auction)
            for name in ("heidi", "ivan", "frank")
        }
        self.notes["path_auction"] = {
            name: [
                outcome.won, outcome.bandwidth_kbps, outcome.paid_mist,
                outcome.refund_mist, list(outcome.clearing_prices_micromist),
                list(outcome.assets), list(outcome.reasons),
            ]
            for name, outcome in path_outcomes.items()
        }
        for name, outcome in path_outcomes.items():
            if outcome.won:
                pairs = list(zip(outcome.assets[0::2], outcome.assets[1::2]))
                assert self.hosts[name].redeem_path(pairs).effects.ok
        # The last AS's live capacity went elsewhere between settle and redeem:
        # it declines both requests, every other AS still delivers.
        last = self.crossings[-1]
        hogged = self.service(last).admission.admit_reservation(
            last.ingress, True, 4 * ASSET_KBPS - 500, *PATH_AUCTION, tag="ops"
        )
        assert hogged.admitted
        self.deliver("heidi", "ivan", "frank")
        self.notes["merged"] = [frank.consolidate_coins(), ivan.consolidate_coins()]

    def end_state(self) -> dict:
        ledger = self.deployment.ledger
        services = {
            f"as-{isd_as}": service for isd_as, service in self.deployment.services.items()
        }
        return {
            "reservations": self.collected,
            "notes": self.notes,
            "undeliverable": {
                name: [list(entry) for entry in service.undeliverable]
                for name, service in services.items()
            },
            "relisted": {
                name: [[event.res_id, listing, reason] for event, listing, reason in service.relisted]
                for name, service in services.items()
            },
            "balances": {
                **{n: coin_balance(ledger, s.account.address) for n, s in services.items()},
                **{n: coin_balance(ledger, h.account.address) for n, h in self.hosts.items()},
            },
            "controllers": {
                name: _digest(
                    {
                        f"{layer} {interface} {is_ingress}": _answers(calendar)
                        for (layer, interface, is_ingress), calendar
                        in service.admission._calendars.items()
                        if calendar.commitment_count
                    }
                )
                for name, service in services.items()
            },
        }


def run_scenario(shard_seconds) -> dict:
    log: list = []
    telemetry = ExperimentTelemetry("transaction_equivalence")
    with _tap(log), telemetry.activate(), use_trace(telemetry.trace("script")) as trace:
        script = _Script(shard_seconds)
        script.issuance()
        script.posted_purchases()
        script.reclaim()
        script.transfers()
        script.auctions()
    check(script.deployment, script.clock.now())
    labels = {
        service.account.address: service.account.name
        for service in script.deployment.services.values()
    }
    labels.update({host.account.address: name for name, host in script.hosts.items()})
    for entry in log:
        entry[0] = labels.get(entry[0], "market-operator")
    scenario = {
        "transactions": log,
        # what the two clients say on the ambient trace and count in the registry
        "trace": [
            [span.name, _digest(span.attrs)]
            for span in trace.spans
            if not span.name.startswith(("ledger.", "admission."))
        ],
        "metrics": {
            row["name"]: sorted([*child["labels"], child["value"]] for child in row["children"])
            for row in telemetry.to_dict()["metrics"]
            if row["name"].startswith(("host_", "as_"))
        },
        **script.end_state(),
    }
    return json.loads(json.dumps(scenario))  # tuples as JSON has them


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("calendars", CALENDARS)
def test_every_transaction_and_the_end_state_match_the_recording(recorded, calendars):
    replayed = run_scenario(CALENDARS[calendars])
    expected = recorded[calendars]
    for index, (ours, theirs) in enumerate(
        zip(replayed["transactions"], expected["transactions"])
    ):
        assert ours == theirs, f"transaction {index} differs"
    assert len(replayed["transactions"]) == len(expected["transactions"])
    for part in expected:
        assert replayed[part] == expected[part], part


def test_both_shard_geometries_leave_the_same_calendars(recorded):
    monolithic, sharded = (recorded[name]["controllers"] for name in CALENDARS)
    assert monolithic == sharded


def test_the_recording_covers_every_submitting_entry_point(recorded):
    """A recording with no fused leg or no aborted redeem would pin nothing."""
    for calendars in CALENDARS:
        scenario = recorded[calendars]
        transactions = scenario["transactions"]
        functions = {name for tx in transactions for name in tx[1].split()}
        assert functions == {
            "market.create_marketplace", "asset.register_as", "market.register_seller",
            "asset.issue", "market.create_listing", "market.cancel_listing",
            "coin.mint", "coin.merge", "market.buy", "asset.fuse_time", "asset.redeem",
            "asset.deliver_reservation", "market.create_auction", "market.place_bid",
            "market.settle_auction", "market.create_path_auction",
            "market.contribute_path_leg", "market.place_path_bid",
            "market.settle_path_auction",
        }
        aborted = [tx[1] for tx in transactions if tx[3] == "abort"]
        assert any("asset.issue" in commands for commands in aborted)  # ledger-refused
        assert any("asset.fuse_time" in commands for commands in aborted)  # raced transfer
        assert "asset.redeem" in aborted  # a spent pair
        legs = scenario["notes"]["transfer"]
        assert len(legs) == 2 and sorted(leg[3] for leg in legs) == [1, 2]
        assert any(reason == "relisted" for _, _, reason in scenario["relisted"]["as-1-1:0:1"])
        won = {name for name, outcome in scenario["notes"]["auction"].items() if outcome[0]}
        assert won and won != set(scenario["notes"]["auction"])
        path_won = [o[0] for o in scenario["notes"]["path_auction"].values()]
        assert True in path_won and False in path_won
        assert all(scenario["reservations"][name] for name in ("alice", "mover", "heidi"))
        assert len(scenario["undeliverable"]["as-1-1:0:0"]) == 2
        assert {name for name, _ in scenario["trace"]} == {
            "bid.placed", "bid.settled", "listing.bought", "redeem.requested",
            "path_bid.placed", "path_bid.settled", "path.bought", "path.redeem",
            "transfer.submitted", "auction.settle", "path_auction.settle",
            "reservation.delivered",
        }


if __name__ == "__main__":
    recording = {name: run_scenario(shard) for name, shard in CALENDARS.items()}
    text = json.dumps(recording, indent=1, sort_keys=True)
    # one line per transaction / reservation: leaf lists are collapsed
    text = re.sub(r"\[[^\[\]{}]*\]", lambda leaf: re.sub(r"\s+", " ", leaf.group(0)), text)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text + "\n")
    print(f"recorded {FIXTURE}")
