"""repro.invariants.check: a calendar is a replay of its records, within its
limit; the market index is a replay of the events and a scan of the objects."""

from types import SimpleNamespace

import pytest

from tests.marketdata.conftest import RawMarket

from repro.admission import (
    ACTIVE,
    DEFAULT_SHARD_SECONDS,
    ISSUED,
    AdmissionController,
    AdmissionPolicy,
)
from repro.invariants import InvariantBreach, check
from repro.ledger.chain import Ledger
from repro.ledger.transactions import Event
from repro.marketdata import MarketIndexer
from repro.reclaim import AdaptiveOverbooking
from repro.scion.addresses import IsdAs

WIDTHS = [pytest.param(DEFAULT_SHARD_SECONDS, id="day"), pytest.param(100.0, id="narrow")]


def _deployment(ledger=None, marketplace="m", **controllers):
    ledger = ledger if ledger is not None else Ledger()
    return SimpleNamespace(
        services={
            name: SimpleNamespace(admission=controller, reclamation=None)
            for name, controller in controllers.items()
        },
        ledger=ledger,
        marketplace=marketplace,
        indexer=MarketIndexer(ledger, marketplace),
    )


@pytest.mark.parametrize("shard_seconds", WIDTHS)
def test_a_busy_controller_holds_even_past_dropped_shards(shard_seconds):
    controller = AdmissionController(1000, shard_seconds=shard_seconds)
    spanning = controller.admit_issue(1, True, 600, 50, 450, tag="a")
    controller.admit_issue(1, True, 400, 120, 180, tag="b")
    controller.admit_reservation(2, False, 300, 0, 90)
    controller.calendar(1, True).reclaim(spanning.commitment.commitment_id, 200)
    for calendar in controller._calendars.values():  # drops two shards under the live
        calendar.expire(210)  # spanning commitment
    check(_deployment(a=controller), now=210)


@pytest.mark.parametrize("shard_seconds", WIDTHS)
def test_a_level_no_record_explains_is_a_breach(shard_seconds):
    controller = AdmissionController(1000, shard_seconds=shard_seconds)
    controller.admit_issue(1, True, 600, 50, 250)
    (shard, *_) = controller.calendar(1, True)._shards.values()
    shard.add(5, 60, 70)  # a leaked piece
    with pytest.raises(InvariantBreach, match=r"\[50, 250\) carries 605 kbps.*replay to 600"):
        check(_deployment(a=controller), now=0)
    check(_deployment(a=controller), now=70)  # nothing wrong from there on


def test_the_limit_is_the_policy_factor_and_every_breach_is_listed():
    strict = AdmissionController(1000)
    strict.calendar(1, True).commit(1200, 0, 100)  # past a rule that never overbooks
    betting = AdmissionController(1000, policy=AdmissionPolicy(1.5))
    assert betting.admit_reservation(1, True, 1400, 0, 100).admitted
    check(_deployment(betting=betting), now=0)
    betting.calendar(1, False, ACTIVE).commit(1501, 0, 100)
    with pytest.raises(InvariantBreach) as caught:
        check(_deployment(strict=strict, betting=betting), now=0)
    assert len(caught.value.breaches) == 2
    assert "AS strict issued interface 1 ingress" in caught.value.breaches[0]
    assert "over 1.5 x 1000 kbps" in caught.value.breaches[1]


def test_a_learned_factor_that_falls_does_not_unsell_what_it_sold():
    policy = AdaptiveOverbooking()
    learning = AdmissionController(1000, policy=policy)
    direction = [learning.calendar(1, True, layer) for layer in (ISSUED, ACTIVE)]
    policy.observe(direction, 0.5)  # half the bookings show up: 2x
    assert learning.admit_issue(1, True, 1900, 0, 100).admitted
    policy.observe(direction, 1.0)  # then every one does: down to 1.54x
    assert not learning.admit_issue(1, True, 1, 0, 100).admitted
    check(_deployment(learning=learning), now=0)  # sold within 2x, still legal
    direction[0].commit(101, 0, 100)  # past the most it ever admitted under
    with pytest.raises(InvariantBreach, match=r"carries 2001 kbps, over 2.0 x 1000 kbps"):
        check(_deployment(learning=learning), now=0)


def test_a_learned_factor_that_rose_and_fell_unsold_does_not_raise_the_bound():
    policy = AdaptiveOverbooking(max_factor=3.0)
    learning = AdmissionController(1000, policy=policy)
    direction = [learning.calendar(1, True, layer) for layer in (ISSUED, ACTIVE)]
    policy.observe(direction, 0.0)  # no-shows only: 3x, and nothing sold at it
    for _ in range(20):
        policy.observe(direction, 1.0)  # back to within 0.1 % of 1x
    assert learning.admit_issue(1, True, 1000, 0, 100).admitted
    direction[1].commit(1900, 0, 100)  # 1.9x, which no factor admitted anything under
    with pytest.raises(InvariantBreach, match=r"carries 1900 kbps, over 1\.00\d* x 1000 kbps"):
        check(_deployment(learning=learning), now=0)


def _market():
    market = RawMarket()
    kept = market.issue_and_list(1, True, 10_000, 0, 3600)
    return market, kept, _deployment(market.ledger, market.marketplace)


def test_an_index_that_folded_every_event_holds():
    market, kept, deployment = _market()
    market.buy(kept, 600, 1200, 2_000)  # a carve in the middle: three rows
    asset = market.run(
        market.seller, "asset", "issue",
        token=market.token, bandwidth_kbps=4_000, start=0, expiry=600, interface=2,
        is_ingress=True, granularity=60, min_bandwidth_kbps=100,
    ).returns[0]["asset"]
    market.run(
        market.seller, "market", "create_auction",
        marketplace=market.marketplace, asset=asset, reserve_micromist_per_unit=40,
    )
    market.run(
        market.seller, "market", "create_path_auction",
        marketplace=market.marketplace, num_legs=2,
    )
    check(deployment, now=0)
    assert deployment.indexer.count == 3 and len(deployment.indexer.open_auctions()) == 2


def test_a_row_kept_after_its_listing_died_is_a_breach():
    market, kept, deployment = _market()
    deployment.indexer.sync()
    assert market.cancel(kept).ok
    deployment.indexer._position = len(market.ledger.events)  # slept through Delisted
    with pytest.raises(InvariantBreach) as caught:
        check(deployment, now=0)
    assert len(caught.value.breaches) == 2
    assert f"index row {kept}" in caught.value.breaches[0]
    assert caught.value.breaches[0].endswith("replays to None")
    assert caught.value.breaches[1].endswith("the object store holds None")


def test_an_auction_the_index_never_saw_is_a_breach():
    market, _, deployment = _market()
    market.run(
        market.seller, "market", "create_path_auction",
        marketplace=market.marketplace, num_legs=2,
    )
    deployment.indexer._position = len(market.ledger.events)  # cursor past the event
    with pytest.raises(InvariantBreach, match=r"open auctions \[\], replays to \[OpenAuction"):
        check(deployment, now=0)


def test_a_request_its_as_polled_past_unanswered_is_a_breach():
    """Every redeem request a poll saw ends delivered or refused; one its AS
    has not polled yet may still be open."""
    ledger = Ledger()
    for checkpoint, request in enumerate(("delivered", "refused", "stranded"), 1):
        ledger.events.append(
            Event("RedeemRequested", {"request": request, "isd": 1, "asn": 7}, "tx", checkpoint)
        )
    for checkpoint, (answer, request) in enumerate(
        (("ReservationDelivered", "delivered"), ("RedemptionRefused", "refused")), 4
    ):
        ledger.events.append(Event(answer, {"request": request}, "tx", checkpoint))
    deployment = _deployment(ledger)
    service = SimpleNamespace(
        admission=AdmissionController(1000), _last_checkpoint=5, reclamation=None
    )
    deployment.services = {IsdAs(1, 7): service}
    with pytest.raises(InvariantBreach, match=r"request stranded to AS 1-0:0:7: polled at checkpoint 5") as raised:
        check(deployment, now=0)
    assert len(raised.value.breaches) == 1
    service._last_checkpoint = 2  # the poll that would see it has not run
    check(deployment, now=0)


def test_a_row_of_a_reservation_the_loop_does_not_track_is_a_breach():
    """Clause (f): the policer's rows are the loop's live reservations'; one
    more is named."""
    live, stale = (1, 3, 0), (1, 3, 60)
    rows = {live, stale}
    tracked = SimpleNamespace(ingress_ifid=1, res_id=3, res_start=0)
    deployment = _deployment()
    deployment.services = {
        IsdAs(1, 7): SimpleNamespace(
            admission=AdmissionController(1000),
            reclamation=SimpleNamespace(
                tracked=lambda: [tracked],
                policer=SimpleNamespace(reservations=lambda: rows),
            ),
        )
    }
    with pytest.raises(InvariantBreach, match="ResID 3 from 60, a reservation") as raised:
        check(deployment, now=0)
    assert len(raised.value.breaches) == 1
    rows.discard(stale)
    check(deployment, now=0)
