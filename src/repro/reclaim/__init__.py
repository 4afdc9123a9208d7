"""Usage feedback and no-show reclamation: closing the admission loop.

The data plane's policer counts what each reservation actually moves
(:mod:`repro.hummingbird.policing`); this package feeds those counts
back into the control plane.  :class:`ReclamationEngine` reads each
reservation's cumulative priority bytes straight off the AS's policer,
shrinks no-show commitments on the active calendars and caps their
data-plane rate there, and :class:`AdaptiveOverbooking` steers each
interface's overbooking factor from the observed show-up rates.  See
``docs/reclamation.md`` for the full loop.
"""

from repro.reclaim.adaptive import AdaptiveOverbooking
from repro.reclaim.engine import (
    ReclamationEngine,
    ReclamationEvent,
    TrackedReservation,
)

# The settings of every reclamation loop, at the values
# ``reclamation_experiment`` runs.  A deployment's loop
# (:meth:`~repro.controlplane.AsService.enable_reclamation`) judges a
# reservation ``GRACE_SECONDS`` after its start; every
# :class:`ReclamationEngine` finds a no-show in one that moved under
# ``NO_SHOW_THRESHOLD`` of its booked rate and lets it keep
# ``RETAIN_HEADROOM`` (>= 1) x what it moved, at least ``MIN_RETAINED_KBPS``.
GRACE_SECONDS = 0.4
NO_SHOW_THRESHOLD = 0.5
RETAIN_HEADROOM = 1.5
MIN_RETAINED_KBPS = 1

__all__ = [
    "GRACE_SECONDS",
    "MIN_RETAINED_KBPS",
    "NO_SHOW_THRESHOLD",
    "RETAIN_HEADROOM",
    "AdaptiveOverbooking",
    "ReclamationEngine",
    "ReclamationEvent",
    "TrackedReservation",
]
