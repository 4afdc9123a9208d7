"""Whole-system invariants: a calendar is a replay of its records, the market
index a replay of the ledger's events and a scan of its objects, every
polled redeem request answered on chain, and no policer row outliving its
reservation.

ROADMAP item 5 states the whole-system property as "every derived state is
a replay of the ledger".  Three slices of it are checked here.  The
calendar-facing, replay-free one: for every AS, layer and interface
direction of a deployment,

(a) a fresh calendar rebuilt from ``calendar.commitments()`` answers
    ``peak_commitment`` exactly like the live one over every elementary
    interval between commitment endpoints at or after ``now`` — the step
    function holds nothing its records do not explain (a leaked piece, a
    release that subtracted too little) and misses nothing they do;
(b) that peak stays within ``int(factor * capacity)``, ``factor`` being the
    admission rule's ``ceiling_factor(calendar)``: the highest factor a
    commitment was admitted under there, which a learned factor that later
    falls does not lower and one that rose with nothing admitted does not
    raise.

The first ledger-backed one (index <- events <- objects): the deployment's
live :class:`~repro.marketdata.MarketIndexer`, synced, holds

(c) what a fresh index folding the event log from event 0 holds — rows,
    reclamation provenance, open auctions with their legs in arrival order
    — so nothing depends on when or how often the live one synced, and
(d) what a scan of the object store finds — a row per live
    ``market::Listing`` with its asset's rectangle and its unit price, an
    open auction per live ``market::Auction`` / ``market::PathAuction`` — so
    the events say everything the objects do.

And one on redemptions, over the event log and every AS's poll cursor:

(e) every ``RedeemRequested`` at or before its AS's last poll ends in a
    ``ReservationDelivered`` or a ``RedemptionRefused``: no
    ``asset::RedeemRequest`` survives a poll of its AS.

And one on the data plane, over every AS whose reclamation loop is bound
to its router's policer:

(f) every row the policer holds belongs to a reservation ``(ingress,
    ResID, ResStart)`` the loop still tracks: each scan stops tracking the
    reservations that ended and has the policer keep only the rows of the
    rest, so none outlives its reservation and none is billed to a later
    holder of the ResID.

Still open as item 5 and extending :func:`check`: calendars rebuilt from
*events* rather than from their own records, host reservation sets, and
coins + escrow (``coin.mint`` emits no event, so "minted" is not yet on the
ledger to replay).
"""

from __future__ import annotations

from repro.admission import CapacityCalendar
from repro.marketdata import MarketIndexer, iter_auctions, iter_listings

__all__ = ["InvariantBreach", "check"]


class InvariantBreach(AssertionError):
    """At least one invariant failed; ``breaches`` names every one found."""

    def __init__(self, breaches: list[str]) -> None:
        super().__init__("\n".join(breaches))
        self.breaches = breaches


def _index_breaches(deployment) -> list[str]:
    """(c) and (d): live index == replay from event 0 == object scan."""
    ledger, marketplace = deployment.ledger, deployment.marketplace
    live, replayed = deployment.indexer, MarketIndexer(ledger, marketplace)

    def rows(listings, provenance) -> dict:
        return {row.listing_id: (row, provenance(row.listing_id)) for row in listings}

    live.sync()
    replayed.sync()
    held, auctions = rows(live.listings(), live.provenance), live.open_auctions()
    expected = {
        "replays to": (
            rows(replayed.listings(), replayed.provenance),
            replayed.open_auctions(),
        ),
        # an object does not say where its supply came from: the live word stands
        "the object store holds": (
            rows(iter_listings(ledger, marketplace), live.provenance),
            list(iter_auctions(ledger, marketplace)),
        ),
    }
    breaches = []
    for says, (expected_rows, expected_auctions) in expected.items():
        for listing_id in sorted(held.keys() | expected_rows.keys()):
            if held.get(listing_id) != expected_rows.get(listing_id):
                breaches.append(
                    f"index row {listing_id}: {held.get(listing_id)}, "
                    f"{says} {expected_rows.get(listing_id)}"
                )
        if auctions != expected_auctions:
            breaches.append(f"open auctions {auctions}, {says} {expected_auctions}")
    return breaches


def _redemption_breaches(deployment) -> list[str]:
    """(e): a poll answers every request it saw."""
    ledger = deployment.ledger
    answers = ledger.events_since(0, "ReservationDelivered", "RedemptionRefused")
    answered = {event.payload["request"] for event in answers}
    return [
        f"redeem request {event.payload['request']} to AS {isd_as}: polled at "
        f"checkpoint {service._last_checkpoint}, neither delivered nor refused"
        for event in ledger.events_since(0, "RedeemRequested")
        if event.payload["request"] not in answered
        for isd_as, service in deployment.services.items()
        if (event.payload["isd"], event.payload["asn"]) == (isd_as.isd, isd_as.asn)
        and event.checkpoint <= service._last_checkpoint
    ]


def _policer_breaches(deployment) -> list[str]:
    """(f): a policer's rows are live reservations'."""
    breaches = []
    for isd_as, service in deployment.services.items():
        loop = service.reclamation
        if loop is None or loop.policer is None:
            continue
        live = {
            (tracked.ingress_ifid, tracked.res_id, tracked.res_start)
            for tracked in loop.tracked()
        }
        breaches += [
            f"AS {isd_as} ingress {ingress}: the policer holds a cap or bytes of "
            f"ResID {res_id} from {res_start}, a reservation its loop does not track"
            for ingress, res_id, res_start in sorted(loop.policer.reservations() - live)
        ]
    return breaches


def check(deployment, now: float) -> None:
    """Check every calendar of every AS in ``deployment`` from ``now`` on,
    its market index against the ledger, that every polled redeem request
    was answered, and that no policer row outlives its reservation.

    Args:
        deployment: a :class:`~repro.controlplane.MarketDeployment`.
        now: the present; shards behind it may have been dropped, so
            nothing before it is asked about.

    Raises:
        InvariantBreach: listing every breach, not only the first.
    """
    breaches = (
        _index_breaches(deployment)
        + _redemption_breaches(deployment)
        + _policer_breaches(deployment)
    )
    for isd_as, service in deployment.services.items():
        controller = service.admission
        for (layer, interface, is_ingress), calendar in controller._calendars.items():
            where = (
                f"AS {isd_as} {layer} interface {interface} "
                f"{'ingress' if is_ingress else 'egress'}"
            )
            factor = controller.policy.ceiling_factor(calendar)
            limit = int(factor * calendar.capacity_kbps)
            replayed = CapacityCalendar(calendar.capacity_kbps, calendar.shard_seconds)
            edges = {now}
            for commitment in calendar.commitments():
                replayed.commit(
                    commitment.bandwidth_kbps, commitment.start, commitment.end
                )
                edges.update(
                    edge for edge in (commitment.start, commitment.end) if edge > now
                )
            edges = sorted(edges)
            for lo, hi in zip(edges, edges[1:]):
                live = calendar.peak_commitment(lo, hi)
                expected = replayed.peak_commitment(lo, hi)
                if live != expected:
                    breaches.append(
                        f"{where}: [{lo}, {hi}) carries {live} kbps, "
                        f"its records replay to {expected}"
                    )
                if live > limit:
                    breaches.append(
                        f"{where}: [{lo}, {hi}) carries {live} kbps, over "
                        f"{factor} x {calendar.capacity_kbps} kbps"
                    )
    if breaches:
        raise InvariantBreach(breaches)
