"""Whole-system invariants: a calendar is a replay of its records, the market
index a replay of the ledger's events and a scan of its objects.

ROADMAP item 5 states the whole-system property as "every derived state is
a replay of the ledger".  Two slices of it are checked here.  The
calendar-facing, replay-free one: for every AS, layer and interface
direction of a deployment,

(a) a fresh calendar rebuilt from ``calendar.commitments()`` answers
    ``peak_commitment`` exactly like the live one over every elementary
    interval between commitment endpoints at or after ``now`` — the step
    function holds nothing its records do not explain (a leaked piece, a
    release that subtracted too little) and misses nothing they do;
(b) that peak stays within ``int(factor * capacity)``, ``factor`` being the
    policy's ``limit_factor(calendar)`` where it overbooks and 1 otherwise.

The first ledger-backed one (index <- events <- objects): the deployment's
live :class:`~repro.marketdata.MarketIndexer`, synced, holds

(c) what a fresh index folding the event log from event 0 holds — rows,
    reclamation provenance, open auctions with their legs in arrival order
    — so nothing depends on when or how often the live one synced, and
(d) what a scan of the object store finds — a row per live
    ``market::Listing`` with its asset's rectangle and its unit price, an
    open auction per live ``market::Auction`` / ``market::PathAuction`` — so
    the events say everything the objects do.

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


def check(deployment, now: float) -> None:
    """Check every calendar of every AS in ``deployment`` from ``now`` on,
    and its market index against the ledger.

    Args:
        deployment: a :class:`~repro.controlplane.MarketDeployment`.
        now: the present; shards behind it may have been dropped, so
            nothing before it is asked about.

    Raises:
        InvariantBreach: listing every breach, not only the first.
    """
    breaches = _index_breaches(deployment)
    for isd_as, service in deployment.services.items():
        controller = service.admission
        limit_factor = getattr(controller.policy, "limit_factor", None)
        for (layer, interface, is_ingress), calendar in controller._calendars.items():
            where = (
                f"AS {isd_as} {layer} interface {interface} "
                f"{'ingress' if is_ingress else 'egress'}"
            )
            factor = 1 if limit_factor is None else limit_factor(calendar)
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
