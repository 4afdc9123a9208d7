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
  ``list.insert`` beats an ndarray representation outright: numpy pays
  ~1-2 us of dispatch per call, which dwarfs the actual work on spans this
  small, while a list insert is a single pointer memmove.  Bulk queries
  take the opposite trade: they compile the step function into cached
  numpy arrays (levels plus per-block maxima) and answer thousands of
  windows per call with ``searchsorted`` + three ``maximum.reduceat``
  passes — a two-level range maximum that costs ``O(B + k/B)`` per window
  (block size ``B``); bulk loads rebuild the whole function from merged
  boundary deltas in one vectorized pass.
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
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

_NEG_INF = float("-inf")
_INF = float("inf")


def _ranged_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-pair ``max(values[lo:hi])``; -1 marks empty ranges (levels are >= 0).

    ``reduceat`` reduces *every* consecutive index pair, including the gaps
    between our queries, so the queries are first sorted by ``lo``: the gap
    ranges then telescope to at most one pass over ``values`` total, instead
    of an arbitrary span per query.  Empty queries collapse to an equal pair
    (``reduceat`` charges nothing for those) and are masked to -1.
    """
    valid = hi > lo
    if not valid.any():
        return np.full(lo.shape, -1, dtype=np.int64)
    order = np.argsort(lo, kind="stable")
    lo_sorted = np.minimum(lo[order], values.size - 1)
    hi_sorted = np.where(valid[order], hi[order], lo_sorted)
    pairs = np.empty(2 * lo_sorted.size, dtype=np.intp)
    pairs[0::2] = lo_sorted
    pairs[1::2] = hi_sorted
    out_sorted = np.where(
        valid[order], np.maximum.reduceat(values, pairs)[0::2], -1
    )
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


class StepFunction:
    """A piecewise-constant integer level over time; no records, no ids.

    Kept *canonical*: no boundary where the level does not change.  The
    form is a pure function of the level profile, so adding a window and
    subtracting it again restores the lists byte-identically (the rollback
    oracle in :mod:`repro.pathadm.fingerprint`).
    """

    __slots__ = ("times", "levels", "_compiled")

    _BLOCK = 128  # two-level range-max block size (~sqrt of typical k)

    def __init__(self) -> None:
        self.times: list[float] = [_NEG_INF]
        self.levels: list[int] = [0]
        self._compiled: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        self._compiled = None

    def add_batch(self, deltas: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        """Add many windows in ``O((n + m) log(n + m))``: the step function is
        rebuilt from merged boundary deltas instead of one insert a window."""
        old_times = np.array(self.times[1:], dtype=np.float64)
        old_deltas = np.diff(np.array(self.levels, dtype=np.int64))
        times = np.concatenate([old_times, starts, ends])
        merged_deltas = np.concatenate([old_deltas, deltas, -deltas])
        unique_times, inverse = np.unique(times, return_inverse=True)
        merged = np.zeros(unique_times.size, dtype=np.int64)
        np.add.at(merged, inverse, merged_deltas)
        change = merged != 0  # drop boundaries that no longer change the level
        self.times = [_NEG_INF, *unique_times[change].tolist()]
        self.levels = [0, *np.cumsum(merged[change]).tolist()]
        self._compiled = None

    def bulk_peak(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`peak` over parallel window arrays.

        Compiles the step function once (cached until the next mutation),
        locates every window with two ``searchsorted`` passes, then takes
        the range maximum two-level: whole blocks through the precompiled
        per-block maxima, partial blocks at the edges through the raw
        levels.  Per window that is ``O(B + k/B)`` instead of ``O(k)``, so
        throughput holds up when single windows overlap thousands of
        boundaries.
        """
        block = self._BLOCK
        if self._compiled is None:
            times = np.array(self.times, dtype=np.float64)
            levels = np.array(self.levels, dtype=np.int64)
            blocks = -(-times.size // block)
            padded = np.full(blocks * block, -1, dtype=np.int64)
            padded[: times.size] = levels
            block_max = padded.reshape(blocks, block).max(axis=1)
            # One pad element each makes index == len valid for reduceat.
            self._compiled = (
                times, np.append(levels, levels[-1]), np.append(block_max, -1)
            )
        times, levels, block_max = self._compiled
        lo = np.searchsorted(times, starts, side="right") - 1
        hi = np.searchsorted(times, ends, side="left")
        lo_block = -(-lo // block)  # first whole block inside the range
        hi_block = hi // block  # first block past the whole-block run
        left = _ranged_max(levels, lo, np.minimum(hi, lo_block * block))
        right = _ranged_max(levels, np.maximum(lo, hi_block * block), hi)
        inner = _ranged_max(block_max, lo_block, hi_block)
        return np.maximum(np.maximum(left, right), inner)


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
    if end <= start:
        raise ValueError(f"empty window [{start}, {end})")


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

    def bulk_peak(self, starts, ends) -> np.ndarray:
        """Vectorized :meth:`peak_commitment` over parallel window arrays.

        Query windows are partitioned per shard: each shard sees only the
        windows overlapping its slot, clipped to it, and answers them with
        one :meth:`StepFunction.bulk_peak` pass; the per-shard answers
        reduce into the output with ``np.maximum``.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if starts.shape != ends.shape:
            raise ValueError("starts and ends must have the same shape")
        out = np.zeros(starts.shape, dtype=np.int64)
        if starts.size == 0:
            return out
        if not np.all(ends > starts):
            raise ValueError("every window must satisfy end > start")
        for key, lo, hi in self._pieces(float(starts.min()), float(ends.max()), existing=True):
            shard = self._shards.get(key)
            if shard is None:
                continue
            mask = (starts < hi) & (ends > lo)
            if mask.any():
                out[mask] = np.maximum(
                    out[mask],
                    shard.bulk_peak(np.maximum(starts[mask], lo), np.minimum(ends[mask], hi)),
                )
        return out

    def bulk_admissible(self, bandwidth_kbps, starts, ends) -> np.ndarray:
        """Boolean mask: would each window still fit ``bandwidth_kbps``?

        ``bandwidth_kbps`` may be a scalar or a per-window array.
        """
        bandwidth = np.asarray(bandwidth_kbps, dtype=np.int64)
        return self.bulk_peak(starts, ends) + bandwidth <= self.capacity_kbps

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

    def commit_batch(self, bandwidths, starts, ends, tag: str = "", track: bool = True):
        """Bulk-load many commitments, one vectorized pass per shard.

        Rows are partitioned by the slot their (remaining) window starts
        in; each shard takes its pieces in a single
        :meth:`StepFunction.add_batch`, and rows extending past the slot
        edge carry over to the next round clipped at the boundary — total
        work is proportional to the number of *pieces*.  With
        ``track=False`` the individual :class:`Commitment` records are not
        kept (they could not be released individually) — the mode
        benchmarks and scenario generators use to load 10^5..10^6
        reservations in one call.
        """
        bandwidths = np.asarray(bandwidths, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if not (bandwidths.shape == starts.shape == ends.shape):
            raise ValueError("bandwidths, starts and ends must be parallel arrays")
        if bandwidths.size == 0:
            return [] if track else None
        if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
            raise ValueError("commitment window must be finite")
        if not np.all(ends > starts) or not np.all(bandwidths > 0):
            raise ValueError("every commitment needs end > start and bandwidth > 0")
        widest = int(np.argmax(ends - starts))
        self._check_span(float(starts[widest]), float(ends[widest]))
        width = self.shard_seconds
        cursor = starts, ends, bandwidths
        if width is not None and self._floor * width > starts.min():
            # Rows reaching behind the watermark project only what is ahead of it.
            clipped = np.maximum(starts, self._floor * width)
            ahead = clipped < ends
            cursor = clipped[ahead], ends[ahead], bandwidths[ahead]
        while cursor[0].size:
            cursor_starts, cursor_ends, cursor_bandwidths = cursor
            if width is None:
                keys = np.zeros(cursor_starts.size, dtype=np.int64)
                piece_ends = cursor_ends
            else:
                keys = np.floor_divide(cursor_starts, width).astype(np.int64)
                piece_ends = np.minimum(cursor_ends, (keys + 1) * width)
            order = np.argsort(keys, kind="stable")
            breaks = np.flatnonzero(np.diff(keys[order])) + 1
            for group in np.split(order, breaks):
                shard = self._shards.setdefault(int(keys[group[0]]), StepFunction())
                shard.add_batch(
                    cursor_bandwidths[group], cursor_starts[group], piece_ends[group]
                )
            carry = piece_ends < cursor_ends
            cursor = piece_ends[carry], cursor_ends[carry], cursor_bandwidths[carry]
        if not track:
            return None
        return [
            self._register(Commitment(next(self._ids), int(bw), float(s), float(e), tag))
            for bw, s, e in zip(bandwidths, starts, ends)
        ]

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
        ``now`` are discarded first, in O(1) each — their levels (and any
        untracked bulk load) vanish wholesale and the watermark moves up,
        so commitments ending in those slots release without touching a
        step function.  Only the slot containing ``now`` is swept record by
        record; with ``shard_seconds=None`` that slot is the whole calendar.
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
        and the end-shard index — and excludes the two things that are
        allocators or caches, not state: the ``_ids`` counter and the
        lazily compiled numpy arrays.  Two calendars with equal
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
        return self._register(Commitment(next(self._ids), bandwidth_kbps, start, end, tag))

    def _register(self, commitment: Commitment) -> Commitment:
        commitment_id = commitment.commitment_id
        self._commitments[commitment_id] = commitment
        self._by_tag.setdefault(commitment.tag, set()).add(commitment_id)
        self._by_end_shard.setdefault(self._end_key(commitment.end), set()).add(commitment_id)
        return commitment

    @staticmethod
    def _unindex(index: dict, key, commitment_id: int) -> None:
        ids = index[key]
        ids.discard(commitment_id)
        if not ids:
            del index[key]

    def _check_commitment(self, bandwidth_kbps: int, start: float, end: float) -> None:
        if not _NEG_INF < start < end < _INF:  # false for a NaN as well
            _check_window(start, end)
            raise ValueError("commitment window must be finite")
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        self._check_span(start, end)

    def _check_span(self, start: float, end: float) -> None:
        width = self.shard_seconds
        if width is not None and end - start > self.MAX_SPAN_SHARDS * width:
            raise ValueError(
                f"commitment [{start}, {end}) spans {(end - start) / width:,.0f} shards "
                f"of {width}s (limit {self.MAX_SPAN_SHARDS}); "
                "use a larger shard_seconds for horizons this long"
            )
