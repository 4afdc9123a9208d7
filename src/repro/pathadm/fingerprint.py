"""Canonical calendar fingerprints: the byte-identical-rollback oracle.

The two-phase path protocol promises that rolling a screened (or even
committed) path back leaves every upstream calendar **byte-identical** to
one that never saw the path at all.  "Byte-identical" is made precise
here: a fingerprint canonicalizes every piece of *state* a calendar
carries — shard geometry, expire watermark and drop counter, each shard's
step-function boundaries and levels, live commitments, tag index and
end-shard index — while excluding the one *allocator*, which is not state:
``_ids``, the monotonically increasing commitment-id counter.  It advances
on every commit and never rewinds; it decides nothing about admission,
pricing, or expiry, so two calendars that differ only in the next id to
hand out answer every query identically.

Everything else is included, so a stray boundary, a leaked commitment, a
stale index entry or an undropped empty shard all change the fingerprint
and fail the rollback property suite.
"""

from __future__ import annotations

from repro.admission.calendar import CapacityCalendar
from repro.admission.controller import AdmissionController

__all__ = [
    "calendar_fingerprint",
    "controller_fingerprint",
]


def calendar_fingerprint(calendar: CapacityCalendar) -> tuple:
    """Hashable canonical form of one calendar's complete state.

    Two calendars with equal fingerprints answer every admission, peak,
    headroom, tag-peak, and expiry query identically; only their next
    commitment id may differ.

    Delegates to the calendar's own ``fingerprint()``.
    """
    return calendar.fingerprint()


def _is_pristine(fingerprint: tuple) -> bool:
    """Nothing committed, nothing dropped (an expire that found the calendar
    empty moved its watermark and nothing an admission can see)."""
    _capacity, _shard_seconds, _watermark, *state = fingerprint
    return not any(state)


def controller_fingerprint(controller: AdmissionController) -> tuple:
    """Fingerprint of every calendar a controller has materialized.

    Calendars are created lazily, so a *rejected* admit materializes an
    empty calendar without recording any state in it.  Pristine calendars
    are therefore skipped: a controller whose only trace of a path is an
    empty lazily-created calendar fingerprints identically to one that
    never saw the path at all — which is exactly the rollback guarantee.
    """
    return tuple(
        sorted(
            (key, fingerprint)
            for key, calendar in controller._calendars.items()
            for fingerprint in [calendar_fingerprint(calendar)]
            if not _is_pristine(fingerprint)
        )
    )
