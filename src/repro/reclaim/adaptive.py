"""Overbooking that learns: the factor tracks observed show-up rates.

If a fraction ``s`` of admitted bandwidth historically shows up, then
admitting ``L`` kbps materializes as roughly ``s * L`` on the wire; the
factor that fills (but does not exceed) physical capacity in expectation
is ``1 / s``.  :class:`AdaptiveOverbooking` keeps an EWMA of the show-up
rate the reclamation engine observes per interface calendar and sets the
factor to ``clamp(1 / ewma, 1, max_factor)`` — honest demand pushes the
factor back toward 1, chronic no-shows let it climb, and ``max_factor``
bounds the bet either way.
"""

from __future__ import annotations

import weakref

from repro.admission.policy import OverbookingPolicy


class AdaptiveOverbooking(OverbookingPolicy):
    """Per-interface overbooking factor steered by observed show-up rates.

    Until the first :meth:`observe` for a calendar, that calendar admits
    at ``initial_factor`` (default 1.0 — no overbooking before there is
    evidence of no-shows).  State is keyed weakly by calendar object, so
    one policy instance can serve every interface of a controller and
    drops its state with the calendars.

    Args:
        initial_factor: factor for calendars with no observations yet.
        max_factor: hard ceiling on the learned factor.
        alpha: EWMA weight of the newest show-up observation.
    """

    name = "adaptive-overbooking"

    def __init__(
        self,
        initial_factor: float = 1.0,
        max_factor: float = 3.0,
        alpha: float = 0.3,
    ) -> None:
        super().__init__(initial_factor)
        if max_factor < 1:
            raise ValueError("max_factor must be >= 1")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.max_factor = float(max_factor)
        self.alpha = float(alpha)
        self._showup: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._factors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def limit_factor(self, calendar) -> float:
        """The factor currently in force for this calendar."""
        return self._factors.get(calendar, self.factor)

    def show_up_ewma(self, calendar) -> float | None:
        """The smoothed show-up rate for this calendar (``None`` = no data)."""
        return self._showup.get(calendar)

    def observe(self, calendar, show_up_rate: float) -> float:
        """Fold one observed show-up rate in; returns the new factor.

        ``show_up_rate`` is observed-priority-rate over booked-rate,
        aggregated over the calendar's tracked reservations (the
        reclamation engine computes it each scan).
        """
        rate = min(max(float(show_up_rate), 0.0), 1.0)
        previous = self._showup.get(calendar)
        ewma = rate if previous is None else (
            (1.0 - self.alpha) * previous + self.alpha * rate
        )
        self._showup[calendar] = ewma
        factor = min(self.max_factor, 1.0 / max(ewma, 1.0 / self.max_factor))
        self._factors[calendar] = max(1.0, factor)
        return self._factors[calendar]
