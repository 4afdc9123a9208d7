"""Per-interface capacity calendars: committed bandwidth as a step function.

An AS interface (used as ingress *or* egress) has a physical capacity; every
asset the AS issues and every reservation it grants commits part of that
capacity over a time window.  A :class:`CapacityCalendar` tracks the total
committed kbps as a piecewise-constant function of time, so that admission
control can answer "does a ``bw`` kbps commitment over ``[start, end)``
still fit?" — the question SIBRA-style per-link accounting puts at the
heart of any inter-domain reservation system.

Two layers, one of each:

* :class:`StepFunction` is the level and nothing else: sorted parallel
  Python lists of *boundary times* and, per boundary, the level in effect
  until the next one (a sentinel boundary at ``-inf`` carries level 0).
  Point operations — one add, one peak query — touch only the handful of
  boundaries a window overlaps, where interpreter-side ``bisect`` +
  ``list.insert`` beats an array representation outright: a vectorized
  call pays ~1-2 us of dispatch, which dwarfs the actual work on spans this
  small, while a list insert is a single pointer memmove.
* :class:`CapacityCalendar` is the commitment ledger: it owns everything a
  commitment *is* — the :class:`Commitment` records, their ids, the tag
  index, the end-shard index, validation — and *projects* each commit,
  release and reclaim as a clipped ``add(+-kbps)`` into a dict of
  :class:`StepFunction` shards, one per ``shard_seconds``-wide slot of the
  time axis.  ``shard_seconds=None`` is the geometry with one unbounded
  slot; a width keeps every boundary list as short as one slot's worth of
  commitments and lets ``expire`` drop whole slots behind ``now`` in O(1)
  each (``docs/scaling.md`` has the numbers for choosing).

The deliberate relaxation a width buys that with: dropping a slot forgets
the *history* of commitments that extend past ``now``, and nothing behind
the expire watermark is materialized again, so queries about windows
before it may under-report.  Admission only ever asks about the present
and future, where every geometry answers identically — the property
``tests/admission/test_sharded_property.py`` drives against a brute-force
reference.

Admission decides one request at a time — each asset an AS issues, each
reservation it grants — so a calendar has no batch path: every level it
holds belongs to a :class:`Commitment` record, and from ``now`` on a fresh
calendar committing ``commitments()`` answers like this one.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

_NEG_INF = float("-inf")
_INF = float("inf")


class StepFunction:
    """A piecewise-constant integer level over time; no records, no ids.

    Kept *canonical*: no boundary where the level does not change.  The
    form is a pure function of the level profile, so adding a window and
    subtracting it again restores the lists byte-identically (the rollback
    oracle in :mod:`repro.pathadm.fingerprint`).
    """

    __slots__ = ("times", "levels")

    def __init__(self) -> None:
        self.times: list[float] = [_NEG_INF]
        self.levels: list[int] = [0]

    def peak(self, start: float, end: float) -> int:
        """Maximum level anywhere in ``[start, end)``."""
        times = self.times
        lo = bisect_right(times, start) - 1
        # Boundaries are unique, so the left insertion point for ``end``
        # is the right one minus (end present).
        hi = bisect_right(times, end, lo)
        if times[hi - 1] == end:
            hi -= 1
        return max(self.levels[lo:hi])

    def add(self, delta: int, start: float, end: float) -> None:
        """Shift the level by ``delta`` over ``[start, end)``."""
        times = self.times
        levels = self.levels
        lo = bisect_right(times, start) - 1
        if times[lo] != start:
            lo += 1
            times.insert(lo, start)
            levels.insert(lo, levels[lo - 1])
        hi = bisect_right(times, end, lo) - 1
        if times[hi] != end:
            hi += 1
            times.insert(hi, end)
            levels.insert(hi, levels[hi - 1])
        levels[lo:hi] = [level + delta for level in levels[lo:hi]]
        # A uniform shift moves every interior boundary and its predecessor
        # alike, so only the two endpoints can have become redundant.
        if levels[hi] == levels[hi - 1]:
            del times[hi]
            del levels[hi]
        if levels[lo] == levels[lo - 1]:
            del times[lo]
            del levels[lo]


class AdmissionRejected(RuntimeError):
    """A commitment does not fit the calendar's remaining capacity."""


@dataclass(frozen=True)
class Commitment:
    """One accepted claim on interface capacity over a time window."""

    commitment_id: int
    bandwidth_kbps: int
    start: float
    end: float
    tag: str = ""  # free-form owner label (buyer address, asset id, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _check_window(start: float, end: float) -> None:
    """The one window rule for queries and commits alike: finite, non-empty."""
    if not _NEG_INF < start < end < _INF:  # false for a NaN as well
        raise ValueError(f"window [{start}, {end}) must be finite and non-empty")


def _sorted_index(index: dict) -> tuple:
    return tuple(sorted((key, tuple(sorted(ids))) for key, ids in index.items()))


class CapacityCalendar:
    """Committed-bandwidth-over-time ledger for one interface direction.

    >>> calendar = CapacityCalendar(capacity_kbps=1000)
    >>> first = calendar.admit(600, 0, 100)
    >>> calendar.peak_commitment(0, 100)
    600
    >>> calendar.admit(600, 50, 150)            # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.admission.calendar.AdmissionRejected: ...
    >>> _ = calendar.admit(600, 100, 200)       # disjoint in time: fits

    With a shard width the commitment is still recorded once; its level is
    projected, clipped, into every slot the window overlaps:

    >>> calendar = CapacityCalendar(capacity_kbps=1000, shard_seconds=100)
    >>> spanning = calendar.admit(600, 50, 250)
    >>> calendar.shard_count, calendar.commitment_count
    (3, 1)
    >>> calendar.peak_commitment(0, 300)
    600
    >>> calendar.try_commit(600, 240, 260) is None
    True
    """

    # Projection touches one shard per overlapped slot, so a commitment
    # spanning millions of them (a mistyped far-future end, or a shard width
    # far too small for the workload's horizon) would hang the dense key
    # loop and exhaust memory before any admission check ran.
    MAX_SPAN_SHARDS = 100_000

    def __init__(self, capacity_kbps: int, shard_seconds: float | None = None) -> None:
        if capacity_kbps <= 0:
            raise ValueError("capacity must be positive")
        if shard_seconds is not None and not shard_seconds > 0:
            raise ValueError("shard width must be positive")
        self.capacity_kbps = int(capacity_kbps)
        self.shard_seconds = None if shard_seconds is None else float(shard_seconds)
        # Created on demand, deleted when flat again or expired: memory
        # tracks the *live* horizon, not calendar history.
        self._shards: dict[int, StepFunction] = {}
        self._commitments: dict[int, Commitment] = {}
        self._by_tag: dict[str, set[int]] = {}  # tag -> commitment ids
        self._by_end_shard: dict[int, set[int]] = {}  # slot of the end -> ids
        self._ids = itertools.count()
        #: First slot :meth:`expire` has not dropped (the watermark): nothing
        #: is projected behind it, so a release subtracts exactly the slots
        #: its commit — or what is left of it — still occupies.
        self._floor: float = _NEG_INF
        #: Lifetime count of whole shards discarded by :meth:`expire`
        #: (telemetry reads this as a monotonic counter).
        self.shards_dropped = 0

    # -- shard geometry -----------------------------------------------------------

    def _pieces(
        self, start: float, end: float, existing: bool = False
    ) -> list[tuple[int, float, float]]:
        """``(slot, clipped start, clipped end)`` for every slot ``[start, end)``
        overlaps at or after the watermark — with ``existing``, only for those
        that may hold a shard (queries: a huge window over a few shards walks
        the shards, not the slots)."""
        width = self.shard_seconds
        if width is None:
            return [(0, start, end)]
        keys = range(max(math.floor(start / width), self._floor), math.ceil(end / width))
        if existing and keys.stop - keys.start > len(self._shards):
            keys = [key for key in self._shards if key in keys]
        return [
            (key, lo, hi)
            for key in keys
            # a float edge can clip a slot's piece to nothing
            if (lo := max(start, key * width)) < (hi := min(end, (key + 1) * width))
        ]

    def _project(self, delta: int, pieces: list[tuple[int, float, float]]) -> None:
        """Shift the committed level by ``delta`` over the pieces, shard by shard."""
        shards = self._shards
        for key, lo, hi in pieces:
            shard = shards.get(key)
            if shard is None:
                shard = shards[key] = StepFunction()
            shard.add(delta, lo, hi)
            if len(shard.times) == 1:  # fully flat again: give the slot back
                del shards[key]

    # -- queries ------------------------------------------------------------------

    def peak_commitment(self, start: float, end: float) -> int:
        """Maximum committed kbps anywhere in ``[start, end)``."""
        _check_window(start, end)
        shards = self._shards
        return max(
            [
                shards[key].peak(lo, hi)
                for key, lo, hi in self._pieces(start, end, existing=True)
                if key in shards
            ],
            default=0,
        )

    def headroom(self, start: float, end: float) -> int:
        """Largest bandwidth still admissible over the whole window."""
        return self.capacity_kbps - self.peak_commitment(start, end)

    def utilization(self, start: float, end: float) -> float:
        """Peak committed fraction of capacity over the window, in [0, ...)."""
        return self.peak_commitment(start, end) / self.capacity_kbps

    def tag_peak(self, tag: str, start: float, end: float) -> int:
        """Peak committed kbps attributable to one tag (e.g. one buyer).

        Computed by sweeping that tag's commitments (found through a
        per-tag index, so the cost scales with one owner's holdings, not
        the whole calendar); exact under reclaims and releases without a
        per-tag calendar.
        """
        _check_window(start, end)
        events: list[tuple[float, int]] = []
        for commitment_id in self._by_tag.get(tag, ()):
            commitment = self._commitments[commitment_id]
            if commitment.end <= start or commitment.start >= end:
                continue
            events.append((max(commitment.start, start), commitment.bandwidth_kbps))
            events.append((min(commitment.end, end), -commitment.bandwidth_kbps))
        events.sort()
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    # -- mutations ----------------------------------------------------------------

    def admit(self, bandwidth_kbps: int, start: float, end: float, tag: str = "") -> Commitment:
        """Commit the bandwidth if it fits; raise :class:`AdmissionRejected`."""
        commitment = self.try_commit(bandwidth_kbps, start, end, tag)
        if commitment is None:
            raise AdmissionRejected(
                f"{bandwidth_kbps} kbps over [{start}, {end}) exceeds headroom "
                f"{self.headroom(start, end)} of {self.capacity_kbps} kbps"
            )
        return commitment

    def try_commit(
        self, bandwidth_kbps: int, start: float, end: float, tag: str = ""
    ) -> Commitment | None:
        """Commit if the window still has headroom; ``None`` otherwise.

        The non-raising form of :meth:`admit` — what per-hop path
        admission (two directions per hop, every hop on the path) runs in
        its hot loop.  Slots with no shard are empty and always fit.
        """
        bandwidth_kbps = int(bandwidth_kbps)
        self._check_commitment(bandwidth_kbps, start, end)
        limit = self.capacity_kbps - bandwidth_kbps
        if limit < 0:
            return None
        pieces = self._pieces(start, end)
        shards = self._shards
        for key, lo, hi in pieces:
            shard = shards.get(key)
            if shard is not None and shard.peak(lo, hi) > limit:
                return None
        return self._record(bandwidth_kbps, start, end, tag, pieces)

    def commit(self, bandwidth_kbps: int, start: float, end: float, tag: str = "") -> Commitment:
        """Record a commitment unconditionally (policies decide the limit)."""
        # Coerce before validating or touching the levels: the step function
        # and the Commitment record must add/subtract the *same* value, or a
        # float input would leak fractional capacity on release.
        bandwidth_kbps = int(bandwidth_kbps)
        self._check_commitment(bandwidth_kbps, start, end)
        return self._record(bandwidth_kbps, start, end, tag, self._pieces(start, end))

    def release(self, commitment_id: int) -> Commitment:
        """Return a commitment's bandwidth to every shard it still occupies."""
        commitment = self._commitments.pop(commitment_id, None)
        if commitment is None:
            raise KeyError(f"unknown commitment {commitment_id}")
        self._unindex(self._by_tag, commitment.tag, commitment_id)
        self._unindex(self._by_end_shard, self._end_key(commitment.end), commitment_id)
        self._project(
            -commitment.bandwidth_kbps, self._pieces(commitment.start, commitment.end)
        )
        return commitment

    def expire(self, now: float) -> int:
        """Release every commitment that ended at or before ``now``.

        With a shard width, shards whose slot lies entirely at or before
        ``now`` are discarded first, in O(1) each — their levels vanish
        wholesale and the watermark moves up, so commitments ending in
        those slots release without touching a step function.  Only the
        slot containing ``now`` is swept record by record; with
        ``shard_seconds=None`` that slot is the whole calendar.
        """
        width = self.shard_seconds
        current = 0 if width is None else math.floor(now / width)
        if width is not None and current > self._floor:
            self._floor = current
            for key in [key for key in self._shards if key < current]:
                del self._shards[key]
                self.shards_dropped += 1
        released = 0
        for key in [key for key in self._by_end_shard if key <= current]:
            for commitment_id in list(self._by_end_shard[key]):
                if self._commitments[commitment_id].end <= now:
                    self.release(commitment_id)
                    released += 1
        return released

    def reclaim(self, commitment_id: int, new_bandwidth_kbps: int) -> Commitment:
        """Shrink a live commitment to ``new_bandwidth_kbps`` in place.

        The no-show reclamation op: the freed ``old - new`` kbps returns
        to the calendar over the commitment's whole window while the
        record keeps its id, window and tag — so policer state, the tag
        index, and marketplace references keyed by the commitment stay
        valid.  Strictly partial: full reclamation is :meth:`release`.

        >>> calendar = CapacityCalendar(capacity_kbps=1000)
        >>> granted = calendar.admit(800, 0, 100)
        >>> calendar.reclaim(granted.commitment_id, 200).bandwidth_kbps
        200
        >>> calendar.headroom(0, 100)
        800
        """
        new_bandwidth_kbps = int(new_bandwidth_kbps)
        commitment = self._commitments.get(commitment_id)
        if commitment is None:
            raise KeyError(f"unknown commitment {commitment_id}")
        if not 0 < new_bandwidth_kbps < commitment.bandwidth_kbps:
            raise ValueError(
                f"reclaim target {new_bandwidth_kbps} kbps outside "
                f"(0, {commitment.bandwidth_kbps})"
            )
        self._project(
            new_bandwidth_kbps - commitment.bandwidth_kbps,
            self._pieces(commitment.start, commitment.end),
        )
        resized = dataclasses.replace(commitment, bandwidth_kbps=new_bandwidth_kbps)
        self._commitments[commitment_id] = resized
        return resized

    # -- introspection ------------------------------------------------------------

    @property
    def commitment_count(self) -> int:
        return len(self._commitments)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def boundary_count(self) -> int:
        """Total boundaries across shards (a slot edge counts in each shard it cuts)."""
        return sum(len(shard.times) - 1 for shard in self._shards.values())

    def commitments(self) -> list[Commitment]:
        return list(self._commitments.values())

    def get(self, commitment_id: int) -> Commitment:
        return self._commitments[commitment_id]

    def fingerprint(self) -> tuple:
        """Hashable canonical form of this calendar's complete state.

        Includes every piece of state — geometry, watermark, drop counter,
        each shard's boundaries and levels, live commitments, the tag index
        and the end-shard index — and excludes the one allocator, which is
        not state: the ``_ids`` counter.  Two calendars with equal
        fingerprints answer every query identically.
        """
        return (
            self.capacity_kbps,
            self.shard_seconds,
            self._floor,
            self.shards_dropped,
            tuple(
                sorted(
                    (key, tuple(shard.times), tuple(shard.levels))
                    for key, shard in self._shards.items()
                )
            ),
            tuple(
                sorted(
                    (cid, c.bandwidth_kbps, c.start, c.end, c.tag)
                    for cid, c in self._commitments.items()
                )
            ),
            _sorted_index(self._by_tag),
            _sorted_index(self._by_end_shard),
        )

    # -- internals ----------------------------------------------------------------

    def _end_key(self, end: float) -> int:
        """Slot containing the window's last instant (``end`` exclusive)."""
        width = self.shard_seconds
        return 0 if width is None else math.ceil(end / width) - 1

    def _record(
        self, bandwidth_kbps: int, start: float, end: float, tag: str, pieces: list
    ) -> Commitment:
        self._project(bandwidth_kbps, pieces)
        commitment_id = next(self._ids)
        commitment = Commitment(commitment_id, bandwidth_kbps, start, end, tag)
        self._commitments[commitment_id] = commitment
        self._by_tag.setdefault(tag, set()).add(commitment_id)
        self._by_end_shard.setdefault(self._end_key(end), set()).add(commitment_id)
        return commitment

    @staticmethod
    def _unindex(index: dict, key, commitment_id: int) -> None:
        ids = index[key]
        ids.discard(commitment_id)
        if not ids:
            del index[key]

    def _check_commitment(self, bandwidth_kbps: int, start: float, end: float) -> None:
        _check_window(start, end)
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        width = self.shard_seconds
        if width is not None and end - start > self.MAX_SPAN_SHARDS * width:
            raise ValueError(
                f"commitment [{start}, {end}) spans {(end - start) / width:,.0f} shards "
                f"of {width}s (limit {self.MAX_SPAN_SHARDS}); "
                "use a larger shard_seconds for horizons this long"
            )
