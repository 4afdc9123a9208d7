"""Pluggable admission policies over a :class:`CapacityCalendar`.

A policy turns "does it physically fit?" into an allocation discipline:

* :class:`FirstComeFirstServed` — admit while the peak stays under
  capacity; arrival order decides who wins a contended window;
* :class:`ProportionalShare` — additionally cap any single buyer's share
  of an interface (SIBRA's bounded-tube idea): no one can corner a link
  even with a deep wallet;
* :class:`OverbookingPolicy` — admit up to ``factor * capacity``,
  betting on no-shows the way airlines do; the data plane still polices
  actual usage, so overbooking trades admission yield against the risk
  of demoting traffic to best effort.

Policies *commit* into the calendar when they admit, so a policy object
plus a calendar is a complete admission authority.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.admission.calendar import CapacityCalendar, Commitment


# Both records are NamedTuples, not dataclasses: they are created on every
# admission decision (4 per screened path hop pair), and tuple construction
# is several times cheaper than a frozen dataclass __init__.
class AdmissionRequest(NamedTuple):
    """One admission question: bandwidth over a window, for a buyer."""

    bandwidth_kbps: int
    start: float
    end: float
    buyer: str = ""


class AdmissionDecision(NamedTuple):
    """Outcome of one admission question."""

    admitted: bool
    reason: str
    commitment: Commitment | None = None


class AdmissionPolicy:
    """Base class: decide requests against a calendar, committing on admit."""

    name = "base"

    def admit(self, calendar: CapacityCalendar, request: AdmissionRequest) -> AdmissionDecision:
        raise NotImplementedError


class FirstComeFirstServed(AdmissionPolicy):
    """Admit while the window's peak commitment stays within capacity."""

    name = "fcfs"

    def admit(self, calendar: CapacityCalendar, request: AdmissionRequest) -> AdmissionDecision:
        commitment = calendar.try_commit(
            request.bandwidth_kbps, request.start, request.end, tag=request.buyer
        )
        if commitment is None:
            headroom = calendar.headroom(request.start, request.end)
            return AdmissionDecision(
                False,
                f"needs {request.bandwidth_kbps} kbps, only {headroom} kbps free",
            )
        return AdmissionDecision(True, "fits", commitment)


class ProportionalShare(FirstComeFirstServed):
    """FCFS plus a per-buyer cap: no buyer exceeds ``max_fraction`` of capacity."""

    name = "proportional-share"

    def __init__(self, max_fraction: float = 0.25) -> None:
        if not 0 < max_fraction <= 1:
            raise ValueError("max_fraction must be in (0, 1]")
        self.max_fraction = max_fraction

    def admit(self, calendar: CapacityCalendar, request: AdmissionRequest) -> AdmissionDecision:
        buyer_cap = int(self.max_fraction * calendar.capacity_kbps)
        buyer_peak = calendar.tag_peak(request.buyer, request.start, request.end)
        if buyer_peak + request.bandwidth_kbps > buyer_cap:
            return AdmissionDecision(
                False,
                f"buyer {request.buyer!r} would hold {buyer_peak + request.bandwidth_kbps} "
                f"of {buyer_cap} kbps allowed ({self.max_fraction:.0%} share cap)",
            )
        return super().admit(calendar, request)


class OverbookingPolicy(AdmissionPolicy):
    """Admit up to ``factor * capacity``, betting that demand won't all show.

    ``max_fraction`` optionally keeps :class:`ProportionalShare`'s
    per-buyer cap alive under overbooking.  The cap is enforced against
    the *physical* capacity, not the overbooked limit: the share cap is a
    promise about the link a buyer can corner, and the link does not get
    bigger because the AS bet on no-shows — when the bet is lost and
    everyone shows up, a buyer still holds at most ``max_fraction`` of
    what physically exists.
    """

    name = "overbooking"

    def __init__(self, factor: float = 1.5, max_fraction: float | None = None) -> None:
        if factor < 1:
            raise ValueError("overbooking factor must be >= 1")
        if max_fraction is not None and not 0 < max_fraction <= 1:
            raise ValueError("max_fraction must be in (0, 1]")
        self.factor = factor
        self.max_fraction = max_fraction

    def limit_factor(self, calendar: CapacityCalendar) -> float:
        """The overbooking factor in force for this calendar (static here;
        :class:`repro.reclaim.AdaptiveOverbooking` steers it per interface)."""
        return self.factor

    def admit(self, calendar: CapacityCalendar, request: AdmissionRequest) -> AdmissionDecision:
        if self.max_fraction is not None:
            buyer_cap = int(self.max_fraction * calendar.capacity_kbps)
            buyer_peak = calendar.tag_peak(request.buyer, request.start, request.end)
            if buyer_peak + request.bandwidth_kbps > buyer_cap:
                return AdmissionDecision(
                    False,
                    f"buyer {request.buyer!r} would hold "
                    f"{buyer_peak + request.bandwidth_kbps} of {buyer_cap} kbps "
                    f"allowed ({self.max_fraction:.0%} share cap, physical)",
                )
        factor = self.limit_factor(calendar)
        limit = int(factor * calendar.capacity_kbps)
        peak = calendar.peak_commitment(request.start, request.end)
        if peak + request.bandwidth_kbps > limit:
            return AdmissionDecision(
                False,
                f"needs {request.bandwidth_kbps} kbps, overbooked limit {limit} kbps "
                f"already carries {peak} kbps",
            )
        commitment = calendar.commit(
            request.bandwidth_kbps, request.start, request.end, tag=request.buyer
        )
        return AdmissionDecision(True, f"fits under {factor}x overbooking", commitment)
