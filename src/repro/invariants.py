"""Whole-system invariants, first slice: a calendar is a replay of its records.

ROADMAP item 5 states the whole-system property as "every derived state is
a replay of the ledger".  This is its calendar-facing, replay-free half:
for every AS, layer and interface direction of a deployment,

(a) a fresh calendar rebuilt from ``calendar.commitments()`` answers
    ``peak_commitment`` exactly like the live one over every elementary
    interval between commitment endpoints at or after ``now`` — the step
    function holds nothing its records do not explain (a leaked piece, a
    release that subtracted too little) and misses nothing they do;
(b) that peak stays within ``int(factor * capacity)``, ``factor`` being the
    policy's ``limit_factor(calendar)`` where it overbooks and 1 otherwise.

An untracked ``commit_batch`` load is by construction not a record, so a
calendar carrying one fails (a); deployments never load that way.  The
ledger-replay half — indexer rows, host reservation sets, coins + escrow —
is still open as item 5 and extends :func:`check`.
"""

from __future__ import annotations

from repro.admission import CapacityCalendar

__all__ = ["InvariantBreach", "check"]


class InvariantBreach(AssertionError):
    """At least one invariant failed; ``breaches`` names every one found."""

    def __init__(self, breaches: list[str]) -> None:
        super().__init__("\n".join(breaches))
        self.breaches = breaches


def check(deployment, now: float) -> None:
    """Check every calendar of every AS in ``deployment`` from ``now`` on.

    Args:
        deployment: a :class:`~repro.controlplane.MarketDeployment`.
        now: the present; shards behind it may have been dropped, so
            nothing before it is asked about.

    Raises:
        InvariantBreach: listing every breach, not only the first.
    """
    breaches: list[str] = []
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
