"""No-show detection and reclamation: the actuator half of the control loop.

The :class:`ReclamationEngine` watches tracked reservations through a
:class:`~repro.reclaim.usage.UsageReporter` and, once a reservation is
past its grace period, compares the observed priority rate against what
was booked.  A reservation using less than ``no_show_threshold`` of its
booking is a **no-show**: its active-calendar commitments are shrunk in
place (:meth:`~repro.admission.calendar.CapacityCalendar.reclaim`) down
to ``retain_headroom`` times the observed rate, the data-plane policer
is capped at the retained rate (a late-waking sender is demoted to best
effort beyond it), and :meth:`ReclamationEngine.scan` returns the freed
bandwidth as events for relisting or re-auction.

Failure model (the matrix ``docs/reclamation.md`` tabulates):

* a calendar validates a reclaim before it mutates anything, so a
  rejected target (``ValueError``) leaves it unchanged and propagates;
* a reservation spanning several calendars (ingress + egress) reclaims
  them in order — the reclamation event, policer demotion, and relist
  hook all fire only once the last calendar is done;
* a commitment that disappeared underneath (released or expired) is
  treated as already reclaimed.

Reclaim targets never go below the observed rate (``retain_headroom >=
1``), so reclamation never lowers an interface's headroom below what the
data plane has actually seen — the invariant the hypothesis suite in
``tests/reclaim/`` drives at both shard geometries of the calendar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.admission.controller import ACTIVE, AdmissionController
from repro.reclaim.usage import UsageReporter
from repro.telemetry import get_registry

# One active-calendar claim of a tracked reservation:
# (interface, is_ingress, commitment_id).
Handle = tuple[int, bool, int]


@dataclass
class TrackedReservation:
    """One delivered reservation under reclamation watch."""

    res_id: int
    ingress_ifid: int
    booked_kbps: int
    start: float
    end: float
    handles: list[Handle]
    tag: str = ""
    bandwidth_kbps: int = 0  # current (post-reclaim) bandwidth
    reclaimed_at: float | None = None
    reclaimed_to_kbps: int | None = None
    bytes_at_reclaim: int = 0
    false_reclaim: bool = False

    def __post_init__(self) -> None:
        if not self.bandwidth_kbps:
            self.bandwidth_kbps = self.booked_kbps


@dataclass(frozen=True)
class ReclamationEvent:
    """One completed reclamation (all calendars shrunk, demotion installed)."""

    res_id: int
    ingress_ifid: int
    old_kbps: int
    new_kbps: int
    start: float
    end: float
    at: float
    observed_kbps: float
    tag: str = ""

    @property
    def freed_kbps(self) -> int:
        return self.old_kbps - self.new_kbps

    @property
    def freed_bytes(self) -> int:
        """Reclaimed bandwidth-bytes: freed rate over the remaining window."""
        return int(self.freed_kbps * 125 * (self.end - self.at))


class ReclamationEngine:
    """Detects no-shows and reclaims their active-calendar bandwidth.

    Args:
        controller: the AS's admission authority (active-layer calendars).
        reporter: the policer-fed usage sampler.
        grace_seconds: how long after a reservation's start before it can
            be judged — a late joiner inside the grace period is safe.
        no_show_threshold: observed/booked rate below which a reservation
            is a no-show (0.5 = "using less than half of what it booked").
        retain_headroom: the reclaimed reservation keeps
            ``retain_headroom * observed`` kbps (must be >= 1, so the
            retained bandwidth never dips below observed usage).
        min_retained_kbps: floor on the retained bandwidth.
        demote: optional ``(ingress_ifid, res_id, kbps)`` callable capping
            the data-plane policer at the retained rate — typically
            ``router.policer.set_limit``.
    """

    def __init__(
        self,
        controller: AdmissionController,
        reporter: UsageReporter,
        grace_seconds: float = 0.5,
        no_show_threshold: float = 0.5,
        retain_headroom: float = 1.5,
        min_retained_kbps: int = 1,
        demote: Callable[[int, int, int], None] | None = None,
    ) -> None:
        if grace_seconds < 0:
            raise ValueError("grace_seconds must be >= 0")
        if not 0 < no_show_threshold <= 1:
            raise ValueError("no_show_threshold must be in (0, 1]")
        if retain_headroom < 1:
            raise ValueError(
                "retain_headroom must be >= 1 (retained bandwidth may never "
                "dip below observed usage)"
            )
        if min_retained_kbps < 1:
            raise ValueError("min_retained_kbps must be >= 1")
        self.controller = controller
        self.reporter = reporter
        self.grace_seconds = float(grace_seconds)
        self.no_show_threshold = float(no_show_threshold)
        self.retain_headroom = float(retain_headroom)
        self.min_retained_kbps = int(min_retained_kbps)
        self.demote = demote
        self._tracked: dict[int, TrackedReservation] = {}
        self.events: list[ReclamationEvent] = []
        self.false_reclaims = 0
        #: Per-(interface, is_ingress) show-up rate from the last scan.
        self.last_show_up: dict[tuple[int, bool], float] = {}
        registry = get_registry()
        self._telemetry = registry.enabled
        self._m_reclaimed_bytes = registry.counter(
            "reclaim_reclaimed_bytes_total",
            "Bandwidth-bytes returned to active calendars by reclamation.",
            ("ingress",),
        )
        self._m_reclaims = registry.counter(
            "reclaim_events_total",
            "Completed reclamations (every calendar shrunk, demotion set).",
            ("ingress",),
        )
        self._m_false = registry.counter(
            "reclaim_false_reclaims_total",
            "Reclaimed reservations whose sender later exceeded the "
            "retained rate (the overbooking bet charged to the buyer).",
        ).labels()
        self._m_scans = registry.counter(
            "reclaim_scans_total", "Reclamation scan passes."
        ).labels()
        self._m_factor = registry.gauge(
            "reclaim_overbooking_factor",
            "Live adaptive overbooking factor per interface direction.",
            ("interface", "direction"),
        )

    # -- tracking -----------------------------------------------------------------

    def track(
        self,
        res_id: int,
        ingress_ifid: int,
        bandwidth_kbps: int,
        start: float,
        end: float,
        handles: list[Handle],
        tag: str = "",
    ) -> TrackedReservation:
        """Put one delivered reservation under watch.

        ``handles`` are the active-layer calendar claims the delivery
        made — ``(interface, is_ingress, commitment_id)`` per direction.
        """
        tracked = TrackedReservation(
            res_id=int(res_id),
            ingress_ifid=int(ingress_ifid),
            booked_kbps=int(bandwidth_kbps),
            start=float(start),
            end=float(end),
            handles=list(handles),
            tag=tag,
        )
        self._tracked[tracked.res_id] = tracked
        return tracked

    def forget(self, res_id: int) -> None:
        """Stop watching a reservation (released, expired, or revoked)."""
        self._tracked.pop(int(res_id), None)

    def tracked(self, res_id: int) -> TrackedReservation | None:
        return self._tracked.get(int(res_id))

    @property
    def tracked_count(self) -> int:
        return len(self._tracked)

    # -- the scan -----------------------------------------------------------------

    def scan(self, now: float) -> list[ReclamationEvent]:
        """One control-loop pass: sample, judge, reclaim, adapt.

        Returns the reclamation events *completed* during this pass.
        """
        now = float(now)
        self.reporter.sample(now)
        if self._telemetry:
            self._m_scans.inc()
        events: list[ReclamationEvent] = []
        showup_num: dict[tuple[int, bool], float] = {}
        showup_den: dict[tuple[int, bool], float] = {}
        for tracked in list(self._tracked.values()):
            if now >= tracked.end:
                self.forget(tracked.res_id)
                continue
            if now < tracked.start + self.grace_seconds:
                continue
            active_seconds = now - tracked.start
            observed = self.reporter.observed_kbps(
                tracked.ingress_ifid, tracked.res_id, active_seconds
            )
            for interface, is_ingress, _ in tracked.handles:
                key = (interface, is_ingress)
                showup_num[key] = showup_num.get(key, 0.0) + min(
                    observed, tracked.booked_kbps
                )
                showup_den[key] = showup_den.get(key, 0.0) + tracked.booked_kbps
            if tracked.reclaimed_at is not None:
                self._check_false_reclaim(tracked, now)
                continue
            event = self._judge(tracked, observed, now)
            if event is not None:
                events.append(event)
        self.last_show_up = {
            key: showup_num[key] / showup_den[key] for key in showup_den
        }
        self._adapt()
        self.events.extend(events)
        return events

    def _judge(
        self, tracked: TrackedReservation, observed: float, now: float
    ) -> ReclamationEvent | None:
        """No-show check + reclaim attempt for one live reservation."""
        if observed >= self.no_show_threshold * tracked.booked_kbps:
            return None  # showing up
        target = max(
            self.min_retained_kbps,
            math.ceil(observed * self.retain_headroom),
        )
        if target >= tracked.bandwidth_kbps:
            return None  # nothing worth reclaiming
        for interface, is_ingress, commitment_id in tracked.handles:
            calendar = self.controller.calendar(interface, is_ingress, ACTIVE)
            try:
                calendar.reclaim(commitment_id, target)
            except KeyError:
                pass  # commitment released/expired underneath: nothing to shrink
        old_kbps = tracked.bandwidth_kbps
        tracked.bandwidth_kbps = target
        tracked.reclaimed_at = now
        tracked.reclaimed_to_kbps = target
        tracked.bytes_at_reclaim = self.reporter.usage_bytes(
            tracked.ingress_ifid, tracked.res_id
        )
        if self.demote is not None:
            self.demote(tracked.ingress_ifid, tracked.res_id, target)
        event = ReclamationEvent(
            res_id=tracked.res_id,
            ingress_ifid=tracked.ingress_ifid,
            old_kbps=old_kbps,
            new_kbps=target,
            start=tracked.start,
            end=tracked.end,
            at=now,
            observed_kbps=observed,
            tag=tracked.tag,
        )
        if self._telemetry:
            self._m_reclaims.labels(tracked.ingress_ifid).inc()
            self._m_reclaimed_bytes.labels(tracked.ingress_ifid).inc(
                event.freed_bytes
            )
        return event

    def _check_false_reclaim(self, tracked: TrackedReservation, now: float) -> None:
        """Flag a reclaimed sender that woke up past its retained rate."""
        if tracked.false_reclaim or now <= tracked.reclaimed_at:
            return
        extra = (
            self.reporter.usage_bytes(tracked.ingress_ifid, tracked.res_id)
            - tracked.bytes_at_reclaim
        )
        rate = extra * 8.0 / 1000.0 / (now - tracked.reclaimed_at)
        if rate > tracked.reclaimed_to_kbps:
            tracked.false_reclaim = True
            self.false_reclaims += 1
            if self._telemetry:
                self._m_false.inc()

    def _adapt(self) -> None:
        """Feed observed show-up rates into an adaptive overbooking policy."""
        observe = getattr(self.controller.policy, "observe", None)
        for (interface, is_ingress), rate in self.last_show_up.items():
            calendar = self.controller.calendar(interface, is_ingress, ACTIVE)
            if observe is not None:
                factor = observe(calendar, rate)
            else:
                factor = getattr(self.controller.policy, "factor", 1.0)
            if self._telemetry:
                self._m_factor.labels(
                    interface, "ingress" if is_ingress else "egress"
                ).set(factor)
