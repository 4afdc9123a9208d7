"""Policer-fed usage sampling: the measurement half of the control loop.

The data plane already counts, per (ingress interface, ResID, ResStart) —
per reservation — the bytes each one actually moved with priority
(:meth:`repro.hummingbird.policing.TokenBucketArray.monitor` adds
``pkt_len`` on every in-profile packet).  :class:`UsageReporter` samples
those **cumulative** counters on a configurable cadence and turns them
into observed rates for the reclamation engine.

Sampling cumulative counters — not instantaneous rates — is the
aliasing guard: a sender bursting exactly *between* (or exactly *at*)
the sampling instants still lands every byte in the counter, so its
observed average rate is exact no matter how its bursts phase against
the sampling clock.  There is no cadence an adversary can hide from, and
therefore no honest burst pattern the loop can mistake for a no-show
(``tests/reclaim/test_reclaim_adversarial.py`` drives this).
"""

from __future__ import annotations

from typing import Callable, Mapping

# The snapshot shape PerInterfacePolicer.usage_snapshot() produces:
# {ingress: {(res_id, res_start): priority bytes}}.
UsageSnapshot = Mapping[int, Mapping[tuple[int, int], int]]


class UsageReporter:
    """Samples per-reservation priority-byte counters on a cadence.

    Args:
        source: zero-argument callable returning the cumulative usage
            snapshot ``{ingress_ifid: {(res_id, res_start): priority_bytes}}`` —
            typically ``router.policer.usage_snapshot``.
        interval: minimum seconds between samples; :meth:`sample` calls
            arriving early are no-ops, so the reporter can sit on any
            housekeeping path without flooding the policer.
    """

    def __init__(self, source: Callable[[], UsageSnapshot], interval: float = 0.25) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.source = source
        self.interval = float(interval)
        self.samples_taken = 0
        self.last_sample_at: float | None = None
        self._bytes: dict[tuple[int, int, int], int] = {}

    def sample(self, now: float) -> bool:
        """Take a sample if the cadence allows; returns whether one was taken."""
        if (
            self.last_sample_at is not None
            and now - self.last_sample_at < self.interval
        ):
            return False
        self._bytes = {
            (int(ingress), int(res_id), int(res_start)): int(total)
            for ingress, by_res in self.source().items()
            for (res_id, res_start), total in by_res.items()
        }
        self.last_sample_at = float(now)
        self.samples_taken += 1
        return True

    def reservations(self) -> set[tuple[int, int, int]]:
        """Every ``(ingress, ResID, ResStart)`` the reporter holds a row of."""
        return set(self._bytes)

    def retain(self, reservations: set[tuple[int, int, int]]) -> None:
        """Forget every row but those of ``reservations``, ``(ingress, ResID,
        ResStart)``: the loop's live ones, so an ended one leaves no row."""
        self._bytes = {key: used for key, used in self._bytes.items() if key in reservations}

    def usage_bytes(self, ingress_ifid: int, res_id: int, res_start: int) -> int:
        """A reservation's cumulative priority bytes at the last sample (0 if
        never seen)."""
        return self._bytes.get((int(ingress_ifid), int(res_id), int(res_start)), 0)

    def observed_kbps(
        self, ingress_ifid: int, res_id: int, res_start: int, active_seconds: float
    ) -> float:
        """Average priority rate over the reservation's active time so far."""
        if active_seconds <= 0:
            return 0.0
        return (
            self.usage_bytes(ingress_ifid, res_id, res_start) * 8.0 / 1000.0 / active_seconds
        )
