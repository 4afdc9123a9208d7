"""Usage feedback and no-show reclamation: closing the admission loop.

The data plane's policer counts what each reservation actually moves
(:mod:`repro.hummingbird.policing`); this package feeds those counts
back into the control plane.  :class:`UsageReporter` samples cumulative
per-(interface, ResID) byte counters, :class:`ReclamationEngine` shrinks
no-show commitments on the active calendars and demotes their data-plane
rate, and :class:`AdaptiveOverbooking` steers each interface's
overbooking factor from the observed show-up rates.  See
``docs/reclamation.md`` for the full loop.
"""

from repro.reclaim.adaptive import AdaptiveOverbooking
from repro.reclaim.engine import (
    ReclamationEngine,
    ReclamationEvent,
    TrackedReservation,
)
from repro.reclaim.usage import UsageReporter, UsageSnapshot

# The settings of every reclamation loop, at the values
# ``reclamation_experiment`` runs.  A deployment's loop
# (:meth:`~repro.controlplane.AsService.enable_reclamation`) samples every
# ``SAMPLE_INTERVAL`` seconds and judges a reservation ``GRACE_SECONDS``
# after its start; every :class:`ReclamationEngine` finds a no-show in one
# that moved under ``NO_SHOW_THRESHOLD`` of its booked rate and lets it keep
# ``RETAIN_HEADROOM`` (>= 1) x what it moved, at least ``MIN_RETAINED_KBPS``.
SAMPLE_INTERVAL = 0.125
GRACE_SECONDS = 0.4
NO_SHOW_THRESHOLD = 0.5
RETAIN_HEADROOM = 1.5
MIN_RETAINED_KBPS = 1

__all__ = [
    "GRACE_SECONDS",
    "MIN_RETAINED_KBPS",
    "NO_SHOW_THRESHOLD",
    "RETAIN_HEADROOM",
    "SAMPLE_INTERVAL",
    "AdaptiveOverbooking",
    "ReclamationEngine",
    "ReclamationEvent",
    "TrackedReservation",
    "UsageReporter",
    "UsageSnapshot",
]
