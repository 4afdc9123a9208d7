"""Overbooking that learns: the factor tracks observed show-up rates.

If a fraction ``s`` of admitted bandwidth historically shows up, then
admitting ``L`` kbps materializes as roughly ``s * L`` on the wire; the
factor that fills (but does not exceed) physical capacity in expectation
is ``1 / s``.  :class:`AdaptiveOverbooking` keeps an EWMA of the show-up
rate the reclamation engine observes per interface direction and sets the
factor to ``clamp(1 / ewma, 1, max_factor)`` — honest demand pushes the
factor back toward 1, chronic no-shows let it climb, and ``max_factor``
bounds the bet either way.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.admission.policy import AdmissionPolicy


@dataclass
class _Direction:
    """One interface direction's learned state, shared by its calendars on
    every layer."""

    factor: float  # in force now
    ceiling: float  # the highest factor a commitment was admitted under
    showup: float | None = None  # EWMA of observed show-up rates


class AdaptiveOverbooking(AdmissionPolicy):
    """Per-interface overbooking factor steered by observed show-up rates.

    Until the first :meth:`observe` for an interface direction, its
    calendars admit at :attr:`INITIAL_FACTOR` (no overbooking before there
    is evidence of no-shows).  State is keyed weakly by
    calendar object, every layer of a direction mapping to the direction's
    one state, so one policy instance can serve every interface of every
    controller it is installed in and drops its state with the calendars.

    Args:
        max_factor: hard ceiling on the learned factor.
    """

    ALPHA = 0.3  # EWMA weight of the newest show-up observation
    INITIAL_FACTOR = 1.0  # factor for calendars with no observations yet

    def __init__(self, max_factor: float = 3.0) -> None:
        super().__init__(self.INITIAL_FACTOR)
        if max_factor < 1:
            raise ValueError("max_factor must be >= 1")
        self.max_factor = float(max_factor)
        self._directions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # what every direction holds before its first observation
        self._unobserved = _Direction(self.factor, self.factor)

    def limit_factor(self, calendar) -> float:
        """The factor currently in force for this calendar."""
        return self._directions.get(calendar, self._unobserved).factor

    def ceiling_factor(self, calendar) -> float:
        """The highest factor this calendar's direction has admitted a
        commitment under, on either layer — :attr:`INITIAL_FACTOR` at least.  A
        factor that rose and fell with nothing admitted does not raise it."""
        return self._directions.get(calendar, self._unobserved).ceiling

    def admit(self, calendar, request):
        """Admit at the factor in force; a commitment made raises its
        direction's ceiling to that factor (an unobserved direction shares
        ``_unobserved``, whose factor is its ceiling, so nothing moves)."""
        decision = super().admit(calendar, request)
        if decision.admitted:
            direction = self._directions.get(calendar, self._unobserved)
            direction.ceiling = max(direction.ceiling, direction.factor)
        return decision

    def observe(self, calendars, show_up_rate: float) -> float:
        """Fold one observed show-up rate in; returns the new factor.

        ``calendars`` lists one interface direction's calendars on every
        layer — the reclamation engine passes the issued and the active
        one.  The factor belongs to the direction, not to a layer: what
        reclamation frees on the active calendar can only go back on sale
        through the issued one.  ``show_up_rate`` is observed-priority-rate
        over booked-rate, aggregated over the direction's tracked
        reservations (the reclamation engine computes it each scan).
        """
        direction = self._directions.get(calendars[0]) or _Direction(self.factor, self.factor)
        for calendar in calendars:
            self._directions[calendar] = direction
        rate = min(max(float(show_up_rate), 0.0), 1.0)
        direction.showup = rate if direction.showup is None else (
            (1.0 - self.ALPHA) * direction.showup + self.ALPHA * rate
        )
        direction.factor = max(
            1.0, min(self.max_factor, 1.0 / max(direction.showup, 1.0 / self.max_factor))
        )
        return direction.factor
