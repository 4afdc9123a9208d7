"""No-show detection and reclamation: the actuator half of the control loop.

The :class:`ReclamationEngine` watches tracked reservations through the
AS's policer, which counts each reservation's priority bytes once, where it
polices them
(:meth:`~repro.hummingbird.policing.PerInterfacePolicer.usage_bytes`), and,
once a reservation is past its grace period, compares the observed priority
rate against what was booked.  A reservation using less than
:data:`repro.reclaim.NO_SHOW_THRESHOLD` of its booking is a **no-show**:
its active-calendar commitments are shrunk in place
(:meth:`~repro.admission.calendar.CapacityCalendar.reclaim`) down to
:data:`~repro.reclaim.RETAIN_HEADROOM` times the observed rate, at least
:data:`~repro.reclaim.MIN_RETAINED_KBPS`, the data-plane policer is capped
at the retained rate (a late-waking sender is demoted to best effort beyond
it), and :meth:`ReclamationEngine.scan` returns the freed
bandwidth as events for relisting or re-auction.

The counters are cumulative, which is the aliasing guard: a sender
bursting exactly between (or exactly at) the scan instants still lands
every byte in its counter, so its observed average rate is exact however
its bursts phase against the scans, and no honest burst pattern can pass
for a no-show (``tests/reclaim/test_reclaim_adversarial.py`` drives this).

Failure model (the matrix ``docs/reclamation.md`` tabulates):

* a calendar validates a reclaim before it mutates anything, so a
  rejected target (``ValueError``) leaves it unchanged and propagates;
* a reservation spanning several calendars (ingress + egress) reclaims
  them in order — the reclamation event, policer demotion, and relist
  hook all fire only once the last calendar is done;
* a commitment that disappeared underneath (released or expired) is
  treated as already reclaimed.

Reclaim targets never go below the observed rate (``RETAIN_HEADROOM >=
1``), so reclamation never lowers an interface's headroom below what the
data plane has actually seen — the invariant the hypothesis suite in
``tests/reclaim/`` drives at a day-wide and at a narrow shard width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import reclaim
from repro.admission.controller import ACTIVE, ISSUED, AdmissionController
from repro.hummingbird.policing import PerInterfacePolicer
from repro.telemetry import get_registry

# One active-calendar claim of a tracked reservation:
# (interface, is_ingress, commitment_id).
Handle = tuple[int, bool, int]


@dataclass
class TrackedReservation:
    """One delivered reservation under reclamation watch.

    ``(ingress_ifid, res_id, res_start)`` names the reservation in the
    data plane: its packets carry ResStart, and the policer keys its bytes
    and its cap by it.  ``start`` is when it is judged from, which a late
    delivery puts after ``res_start``.
    """

    res_id: int
    ingress_ifid: int
    res_start: int
    booked_kbps: int
    start: float
    end: float
    handles: list[Handle]
    bandwidth_kbps: int  # current (post-reclaim) bandwidth
    tag: str = ""
    reclaimed_at: float | None = None
    reclaimed_to_kbps: int | None = None
    bytes_at_reclaim: int = 0
    false_reclaim: bool = False


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
        policer: the AS's data-plane policer (``router.policer``), or
            ``None`` for an empty usage feed that caps nothing.  A scan reads
            each reservation's cumulative priority bytes with its
            ``usage_bytes``, caps a reclaimed one at the retained rate with
            ``set_limit`` and, when done, has it ``retain`` only the rows of
            the reservations still tracked, ended ones dropped.
        grace_seconds: how long after a reservation's start before it can
            be judged — a late joiner inside the grace period is safe.
    """

    def __init__(
        self,
        controller: AdmissionController,
        policer: PerInterfacePolicer | None,
        grace_seconds: float,
    ) -> None:
        if grace_seconds < 0:
            raise ValueError("grace_seconds must be >= 0")
        self.controller = controller
        self.policer = policer
        self.grace_seconds = float(grace_seconds)
        # keyed by reservation, (ingress, ResID, ResStart): a ResID is unique
        # per ingress and window only
        self._tracked: dict[tuple[int, int, int], TrackedReservation] = {}
        self.events: list[ReclamationEvent] = []
        self.false_reclaims = 0
        #: Per-(interface, is_ingress) show-up rate from the last scan.
        self.last_show_up: dict[tuple[int, bool], float] = {}
        registry = get_registry()
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
        res_start: int,
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
            res_start=int(res_start),
            booked_kbps=int(bandwidth_kbps),
            start=float(start),
            end=float(end),
            handles=list(handles),
            bandwidth_kbps=int(bandwidth_kbps),
            tag=tag,
        )
        self._tracked[tracked.ingress_ifid, tracked.res_id, tracked.res_start] = tracked
        return tracked

    @property
    def tracked_count(self) -> int:
        return len(self._tracked)

    def tracked(self) -> list[TrackedReservation]:
        """The reservations under watch, in the order they were tracked."""
        return list(self._tracked.values())

    # -- the scan -----------------------------------------------------------------

    def scan(self, now: float) -> list[ReclamationEvent]:
        """One control-loop pass: read the policer, judge, reclaim, adapt.

        Returns the reclamation events *completed* during this pass.
        """
        now = float(now)
        self._m_scans.inc()
        events: list[ReclamationEvent] = []
        showup_num: dict[tuple[int, bool], float] = {}
        showup_den: dict[tuple[int, bool], float] = {}
        for key, tracked in list(self._tracked.items()):
            if now >= tracked.end:
                del self._tracked[key]
                continue
            if now < tracked.start + self.grace_seconds:
                continue
            active_seconds = now - tracked.start
            # average priority rate over the reservation's active time so far
            observed = (
                self._used(tracked) * 8.0 / 1000.0 / active_seconds
                if active_seconds > 0
                else 0.0
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
        if self.policer is not None:
            self.policer.retain(set(self._tracked))
        self._adapt()
        self.events.extend(events)
        return events

    def _judge(
        self, tracked: TrackedReservation, observed: float, now: float
    ) -> ReclamationEvent | None:
        """No-show check + reclaim attempt for one live reservation."""
        if observed >= reclaim.NO_SHOW_THRESHOLD * tracked.booked_kbps:
            return None  # showing up
        target = max(
            reclaim.MIN_RETAINED_KBPS,
            math.ceil(observed * reclaim.RETAIN_HEADROOM),
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
        tracked.bytes_at_reclaim = self._used(tracked)
        if self.policer is not None:
            self.policer.set_limit(
                tracked.ingress_ifid, tracked.res_id, tracked.res_start, target
            )
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
        self._m_reclaims.labels(tracked.ingress_ifid).inc()
        self._m_reclaimed_bytes.labels(tracked.ingress_ifid).inc(event.freed_bytes)
        return event

    def _check_false_reclaim(self, tracked: TrackedReservation, now: float) -> None:
        """Flag a reclaimed sender that woke up past its retained rate."""
        if tracked.false_reclaim or now <= tracked.reclaimed_at:
            return
        extra = self._used(tracked) - tracked.bytes_at_reclaim
        rate = extra * 8.0 / 1000.0 / (now - tracked.reclaimed_at)
        if rate > tracked.reclaimed_to_kbps:
            tracked.false_reclaim = True
            self.false_reclaims += 1
            self._m_false.inc()

    def _used(self, tracked: TrackedReservation) -> int:
        """A reservation's cumulative priority bytes so far (0 on an empty feed)."""
        if self.policer is None:
            return 0
        return self.policer.usage_bytes(
            tracked.ingress_ifid, tracked.res_id, tracked.res_start
        )

    def _adapt(self) -> None:
        """Feed observed show-up rates into the admission rule, one factor
        per interface direction for both of its layers."""
        policy = self.controller.policy
        for (interface, is_ingress), rate in self.last_show_up.items():
            factor = policy.observe(
                [
                    self.controller.calendar(interface, is_ingress, layer)
                    for layer in (ISSUED, ACTIVE)
                ],
                rate,
            )
            direction = "ingress" if is_ingress else "egress"
            self._m_factor.labels(interface, direction).set(factor)
