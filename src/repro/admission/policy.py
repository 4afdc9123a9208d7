"""The admission rule over a :class:`CapacityCalendar`.

One rule turns "does it physically fit?" into an allocation discipline:
:class:`AdmissionPolicy` admits first come, first served while the
window's peak stays within ``int(factor * capacity)``.  At the default
factor of 1 that is the physical capacity, and arrival order decides who
wins a contended window; above 1 it overbooks, betting on no-shows the way
airlines do.  The data plane still polices actual usage, so overbooking
trades admission yield against the risk of demoting traffic to best
effort.  :class:`repro.reclaim.AdaptiveOverbooking` steers the factor per
interface direction.

The rule *commits* into the calendar when it admits, so a policy object
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
    """Admit first come, first served up to ``int(factor * capacity)``.

    >>> calendar = CapacityCalendar(capacity_kbps=1000)
    >>> AdmissionPolicy().admit(calendar, AdmissionRequest(600, 0, 100)).reason
    'fits'
    >>> AdmissionPolicy().admit(calendar, AdmissionRequest(600, 0, 100)).reason
    'needs 600 kbps, only 400 kbps free'
    >>> AdmissionPolicy(1.5).admit(calendar, AdmissionRequest(600, 0, 100)).admitted
    True
    """

    def __init__(self, factor: float = 1.0) -> None:
        if factor < 1:
            raise ValueError("overbooking factor must be >= 1")
        self.factor = factor

    def limit_factor(self, calendar: CapacityCalendar) -> float:
        """The factor in force for this calendar (static here;
        :class:`repro.reclaim.AdaptiveOverbooking` steers it per interface)."""
        return self.factor

    # The highest factor a calendar has admitted a commitment under: the
    # bound everything it carries was sold within (the factor itself here;
    # a learned factor that falls does not unsell what it sold).
    ceiling_factor = limit_factor

    def observe(self, calendars: list[CapacityCalendar], show_up_rate: float) -> float:
        """Fold one interface direction's observed show-up rate in; returns
        the factor now in force there.  A static factor keeps its factor."""
        return self.factor

    def admit(self, calendar: CapacityCalendar, request: AdmissionRequest) -> AdmissionDecision:
        limit = int(self.limit_factor(calendar) * calendar.capacity_kbps)
        commitment = calendar.try_commit(
            request.bandwidth_kbps, request.start, request.end, limit, tag=request.buyer
        )
        if commitment is None:
            # a learned factor that fell leaves the peak above the limit: no room
            free = max(0, limit - calendar.peak_commitment(request.start, request.end))
            return AdmissionDecision(
                False, f"needs {request.bandwidth_kbps} kbps, only {free} kbps free"
            )
        return AdmissionDecision(True, "fits", commitment)
