"""Per-interface capacity calendars: committed bandwidth as a step function.

An AS interface (used as ingress *or* egress) has a physical capacity; every
asset the AS issues and every reservation it grants commits part of that
capacity over a time window.  A :class:`CapacityCalendar` tracks the total
committed kbps as a piecewise-constant function of time, so that admission
control can answer "does a ``bw`` kbps commitment over ``[start, end)``
still fit?" — the question SIBRA-style per-link accounting puts at the
heart of any inter-domain reservation system.

Representation: sorted parallel Python lists of *boundary times* and, per
boundary, the committed level in effect from that boundary until the next
one (a sentinel boundary at ``-inf`` carries level 0).  Point operations —
one admit, one release, one peak query — touch only the handful of
boundaries a window overlaps, where interpreter-side ``bisect`` +
``list.insert`` beats an ndarray representation outright: numpy pays
~1-2 us of dispatch per call, which dwarfs the actual work on spans this
small, while a list insert is a single pointer memmove.  Bulk queries take
the opposite trade: they compile the step function into cached numpy
arrays (levels plus per-block maxima) and answer thousands of windows per
call with ``searchsorted`` + three ``maximum.reduceat`` passes — a
two-level range maximum that costs ``O(B + k/B)`` per window (block size
``B``), so batch admission stays fast even at 10^6 concurrent
reservations; bulk loads (:meth:`commit_batch`) rebuild the whole step
function from merged boundary deltas in one vectorized pass.
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

_NEG_INF = float("-inf")


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


class AdmissionRejected(RuntimeError):
    """A commitment does not fit the calendar's remaining capacity."""


def _commitment_rows(commitments: dict) -> tuple:
    """Canonical sorted rows of a commitment dict (fingerprint helper)."""
    return tuple(
        sorted(
            (cid, c.bandwidth_kbps, c.start, c.end, c.tag)
            for cid, c in commitments.items()
        )
    )


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
    """

    def __init__(self, capacity_kbps: int) -> None:
        if capacity_kbps <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_kbps = int(capacity_kbps)
        self._times: list[float] = [_NEG_INF]
        self._levels: list[int] = [0]
        self._commitments: dict[int, Commitment] = {}
        self._by_tag: dict[str, set[int]] = {}  # tag -> commitment ids
        self._ids = itertools.count()
        self._dirty = True
        self._np_times: np.ndarray | None = None
        self._np_levels: np.ndarray | None = None
        self._np_block_max: np.ndarray | None = None

    def _install(self, times: list[float], levels: list[int]) -> None:
        """Replace the whole step function (bulk rebuilds)."""
        self._times = times
        self._levels = levels

    # -- queries ---------------------------------------------------------------

    def peak_commitment(self, start: float, end: float) -> int:
        """Maximum committed kbps anywhere in ``[start, end)``."""
        self._check_window(start, end)
        times = self._times
        lo = bisect_right(times, start) - 1
        # Boundaries are unique, so the left insertion point for ``end``
        # is the right one minus (end present).
        hi = bisect_right(times, end, lo)
        if times[hi - 1] == end:
            hi -= 1
        return max(self._levels[lo:hi])

    def headroom(self, start: float, end: float) -> int:
        """Largest bandwidth still admissible over the whole window."""
        return self.capacity_kbps - self.peak_commitment(start, end)

    def utilization(self, start: float, end: float) -> float:
        """Peak committed fraction of capacity over the window, in [0, ...)."""
        return self.peak_commitment(start, end) / self.capacity_kbps

    def mean_commitment(self, start: float, end: float) -> float:
        """Time-weighted average committed kbps over ``[start, end)``."""
        self._check_window(start, end)
        lo = bisect_right(self._times, start) - 1
        hi = bisect_left(self._times, end, lo)
        bounds = [start, *self._times[lo + 1 : hi], end]
        total = sum(
            level * (bounds[i + 1] - bounds[i])
            for i, level in enumerate(self._levels[lo:hi])
        )
        return total / (end - start)

    def tag_peak(self, tag: str, start: float, end: float) -> int:
        """Peak committed kbps attributable to one tag (e.g. one buyer).

        Computed by sweeping that tag's commitments (found through a
        per-tag index, so the cost scales with one owner's holdings, not
        the whole calendar); exact under splits and releases without a
        per-tag calendar.
        """
        self._check_window(start, end)
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

    # -- vectorized bulk path ---------------------------------------------------

    _BLOCK = 128  # two-level range-max block size (~sqrt of typical k)

    def bulk_peak(self, starts, ends) -> np.ndarray:
        """Vectorized :meth:`peak_commitment` over parallel window arrays.

        Compiles the step function once (cached until the next mutation),
        locates every window with two ``searchsorted`` passes, then takes
        the range maximum two-level: whole blocks through the precompiled
        per-block maxima, partial blocks at the edges through the raw
        levels.  Per window that is ``O(B + k/B)`` instead of ``O(k)``, so
        throughput holds up when single windows overlap thousands of
        boundaries.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if starts.shape != ends.shape:
            raise ValueError("starts and ends must have the same shape")
        if starts.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not np.all(ends > starts):
            raise ValueError("every window must satisfy end > start")
        times, levels, block_max = self._compiled()
        block = self._BLOCK
        lo = np.searchsorted(times, starts, side="right") - 1
        hi = np.searchsorted(times, ends, side="left")
        lo_block = -(-lo // block)  # first whole block inside the range
        hi_block = hi // block  # first block past the whole-block run
        left = _ranged_max(levels, lo, np.minimum(hi, lo_block * block))
        right = _ranged_max(levels, np.maximum(lo, hi_block * block), hi)
        inner = _ranged_max(block_max, lo_block, hi_block)
        return np.maximum(np.maximum(left, right), inner)

    def bulk_headroom(self, starts, ends) -> np.ndarray:
        return self.capacity_kbps - self.bulk_peak(starts, ends)

    def bulk_admissible(self, bandwidth_kbps, starts, ends) -> np.ndarray:
        """Boolean mask: would each window still fit ``bandwidth_kbps``?

        ``bandwidth_kbps`` may be a scalar or a per-window array.
        """
        bandwidth = np.asarray(bandwidth_kbps, dtype=np.int64)
        return self.bulk_peak(starts, ends) + bandwidth <= self.capacity_kbps

    # -- mutations ---------------------------------------------------------------

    def admit(self, bandwidth_kbps: int, start: float, end: float, tag: str = "") -> Commitment:
        """Commit the bandwidth if it fits; raise :class:`AdmissionRejected`."""
        self._check_commitment(bandwidth_kbps, start, end)
        headroom = self.headroom(start, end)
        if bandwidth_kbps > headroom:
            raise AdmissionRejected(
                f"{bandwidth_kbps} kbps over [{start}, {end}) exceeds headroom "
                f"{headroom} of {self.capacity_kbps} kbps"
            )
        return self.commit(bandwidth_kbps, start, end, tag)

    def try_commit(
        self, bandwidth_kbps: int, start: float, end: float, tag: str = ""
    ) -> Commitment | None:
        """Commit if the window still has headroom; ``None`` otherwise.

        The non-raising single-walk form of :meth:`admit` — the peak check
        and the commit share one traversal, which is what per-hop path
        admission (two directions per hop, every hop on the path) runs in
        its hot loop.
        """
        bandwidth_kbps = int(bandwidth_kbps)
        self._check_commitment(bandwidth_kbps, start, end)
        times = self._times
        lo = bisect_right(times, start) - 1
        hi = bisect_right(times, end, lo)
        if times[hi - 1] == end:
            hi -= 1
        if max(self._levels[lo:hi]) + bandwidth_kbps > self.capacity_kbps:
            return None
        return self.commit(bandwidth_kbps, start, end, tag)

    def commit(self, bandwidth_kbps: int, start: float, end: float, tag: str = "") -> Commitment:
        """Record a commitment unconditionally (policies decide the limit)."""
        # Coerce before validating or touching the levels: the step function
        # and the Commitment record must add/subtract the *same* value, or a
        # float input would leak fractional capacity on release.
        bandwidth_kbps = int(bandwidth_kbps)
        self._check_commitment(bandwidth_kbps, start, end)
        lo, hi = self._ensure_boundaries(start, end)
        levels = self._levels
        levels[lo:hi] = [level + bandwidth_kbps for level in levels[lo:hi]]
        self._prune_endpoints(lo, hi)
        commitment = Commitment(next(self._ids), bandwidth_kbps, start, end, tag)
        self._commitments[commitment.commitment_id] = commitment
        self._index(commitment)
        self._dirty = True
        return commitment

    def commit_batch(self, bandwidths, starts, ends, tag: str = "", track: bool = True):
        """Bulk-load many commitments in ``O((n + m) log(n + m))``.

        Rebuilds the step function from merged boundary deltas instead of
        inserting one window at a time.  With ``track=False`` the individual
        :class:`Commitment` records are not kept (they could not be released
        individually) — the mode benchmarks and scenario generators use to
        load 10^5..10^6 reservations in one call.
        """
        bandwidths = np.asarray(bandwidths, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if not (bandwidths.shape == starts.shape == ends.shape):
            raise ValueError("bandwidths, starts and ends must be parallel arrays")
        if bandwidths.size == 0:
            return [] if track else None
        if not np.all(ends > starts) or not np.all(bandwidths > 0):
            raise ValueError("every commitment needs end > start and bandwidth > 0")
        old_times = np.array(self._times[1:], dtype=np.float64)
        old_deltas = np.diff(np.array(self._levels, dtype=np.int64))
        times = np.concatenate([old_times, starts, ends])
        deltas = np.concatenate([old_deltas, bandwidths, -bandwidths])
        unique_times, inverse = np.unique(times, return_inverse=True)
        merged = np.zeros(unique_times.size, dtype=np.int64)
        np.add.at(merged, inverse, deltas)
        change = merged != 0  # drop boundaries that no longer change the level
        levels = np.cumsum(merged[change])
        self._install(
            [_NEG_INF, *unique_times[change].tolist()],
            [0, *levels.tolist()],
        )
        self._dirty = True
        if not track:
            return None
        commitments = [
            Commitment(next(self._ids), int(bw), float(s), float(e), tag)
            for bw, s, e in zip(bandwidths, starts, ends)
        ]
        for commitment in commitments:
            self._commitments[commitment.commitment_id] = commitment
            self._index(commitment)
        return commitments

    def release(self, commitment_id: int) -> Commitment:
        """Return a commitment's bandwidth to the calendar."""
        commitment = self._commitments.pop(commitment_id, None)
        if commitment is None:
            raise KeyError(f"unknown commitment {commitment_id}")
        self._unindex(commitment)
        lo, hi = self._ensure_boundaries(commitment.start, commitment.end)
        levels = self._levels
        bandwidth_kbps = commitment.bandwidth_kbps
        levels[lo:hi] = [level - bandwidth_kbps for level in levels[lo:hi]]
        self._prune_endpoints(lo, hi)
        self._dirty = True
        return commitment

    def expire(self, now: float) -> int:
        """Release every commitment that ended at or before ``now``."""
        ended = [c.commitment_id for c in self._commitments.values() if c.end <= now]
        for commitment_id in ended:
            self.release(commitment_id)
        return len(ended)

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
        delta = new_bandwidth_kbps - commitment.bandwidth_kbps
        lo, hi = self._ensure_boundaries(commitment.start, commitment.end)
        levels = self._levels
        levels[lo:hi] = [level + delta for level in levels[lo:hi]]
        self._prune_endpoints(lo, hi)
        resized = dataclasses.replace(commitment, bandwidth_kbps=new_bandwidth_kbps)
        self._commitments[commitment.commitment_id] = resized
        self._dirty = True
        return resized

    # -- commitment surgery (mirrors asset split/fuse/transfer) -------------------

    def split_time(self, commitment_id: int, at: float) -> tuple[Commitment, Commitment]:
        """Split one commitment at ``at``; the committed profile is unchanged."""
        commitment = self._commitments.pop(commitment_id)
        if not commitment.start < at < commitment.end:
            self._commitments[commitment_id] = commitment
            raise ValueError(f"split point {at} outside ({commitment.start}, {commitment.end})")
        first = Commitment(
            next(self._ids), commitment.bandwidth_kbps, commitment.start, at, commitment.tag
        )
        second = Commitment(
            next(self._ids), commitment.bandwidth_kbps, at, commitment.end, commitment.tag
        )
        self._unindex(commitment)
        for piece in (first, second):
            self._commitments[piece.commitment_id] = piece
            self._index(piece)
        return first, second

    def split_bandwidth(self, commitment_id: int, bandwidth_kbps: int) -> tuple[Commitment, Commitment]:
        """Split one commitment into two stacked bandwidth shares."""
        commitment = self._commitments.pop(commitment_id)
        if not 0 < bandwidth_kbps < commitment.bandwidth_kbps:
            self._commitments[commitment_id] = commitment
            raise ValueError(
                f"split bandwidth {bandwidth_kbps} outside (0, {commitment.bandwidth_kbps})"
            )
        first = Commitment(
            next(self._ids),
            commitment.bandwidth_kbps - bandwidth_kbps,
            commitment.start,
            commitment.end,
            commitment.tag,
        )
        second = Commitment(
            next(self._ids), int(bandwidth_kbps), commitment.start, commitment.end, commitment.tag
        )
        self._unindex(commitment)
        for piece in (first, second):
            self._commitments[piece.commitment_id] = piece
            self._index(piece)
        return first, second

    def fuse(self, first_id: int, second_id: int) -> Commitment:
        """Recombine two commitments (time-adjacent or same-window)."""
        a = self._commitments[first_id]
        b = self._commitments[second_id]
        if (a.start, a.end) == (b.start, b.end):
            fused = Commitment(
                next(self._ids), a.bandwidth_kbps + b.bandwidth_kbps, a.start, a.end, a.tag
            )
        elif a.bandwidth_kbps == b.bandwidth_kbps and (a.end == b.start or b.end == a.start):
            fused = Commitment(
                next(self._ids),
                a.bandwidth_kbps,
                min(a.start, b.start),
                max(a.end, b.end),
                a.tag,
            )
        else:
            raise ValueError("commitments neither same-window nor time-adjacent with equal bandwidth")
        for old in (a, b):
            del self._commitments[old.commitment_id]
            self._unindex(old)
        self._commitments[fused.commitment_id] = fused
        self._index(fused)
        return fused

    def transfer(self, commitment_id: int, tag: str) -> Commitment:
        """Re-label a commitment (ownership moved, e.g. a resold asset)."""
        commitment = self._commitments.pop(commitment_id)
        self._unindex(commitment)
        transferred = dataclasses.replace(commitment, tag=tag)
        self._commitments[transferred.commitment_id] = transferred
        self._index(transferred)
        return transferred

    # -- introspection ------------------------------------------------------------

    @property
    def commitment_count(self) -> int:
        return len(self._commitments)

    @property
    def boundary_count(self) -> int:
        return len(self._times) - 1  # exclude the -inf sentinel

    def commitments(self) -> list[Commitment]:
        return list(self._commitments.values())

    def get(self, commitment_id: int) -> Commitment:
        return self._commitments[commitment_id]

    # -- snapshot / fingerprint ----------------------------------------------------

    def fingerprint(self) -> tuple:
        """Hashable canonical form of this calendar's complete state.

        Includes every piece of state — boundaries, levels, live
        commitments, and the tag index — and excludes the two things that
        are allocators or caches, not state: the ``_ids`` counter and the
        lazily compiled numpy arrays.  Two calendars with equal
        fingerprints answer every query identically.
        """
        return (
            "monolithic",
            self.capacity_kbps,
            tuple(self._times),
            tuple(self._levels),
            _commitment_rows(self._commitments),
            tuple(
                sorted(
                    (tag, tuple(sorted(ids)))
                    for tag, ids in self._by_tag.items()
                )
            ),
        )

    # -- internals ----------------------------------------------------------------

    def _compiled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._dirty or self._np_times is None:
            self._np_times = np.array(self._times, dtype=np.float64)
            levels = np.array(self._levels, dtype=np.int64)
            # One pad element makes index == len(times) valid for reduceat.
            self._np_levels = np.append(levels, levels[-1])
            count = self._np_times.size
            blocks = -(-count // self._BLOCK)
            padded = np.full(blocks * self._BLOCK, -1, dtype=np.int64)
            padded[:count] = self._np_levels[:count]
            block_max = padded.reshape(blocks, self._BLOCK).max(axis=1)
            self._np_block_max = np.append(block_max, -1)  # reduceat pad
            self._dirty = False
        return self._np_times, self._np_levels, self._np_block_max

    def _index(self, commitment: Commitment) -> None:
        self._by_tag.setdefault(commitment.tag, set()).add(commitment.commitment_id)

    def _unindex(self, commitment: Commitment) -> None:
        ids = self._by_tag.get(commitment.tag)
        if ids is not None:
            ids.discard(commitment.commitment_id)
            if not ids:
                del self._by_tag[commitment.tag]

    def _prune_endpoints(self, lo: int, hi: int) -> None:
        """Restore canonicality after a span add/subtract over ``[lo, hi)``.

        The representation is kept *canonical*: no boundary where the level
        does not change.  A uniform span update shifts every interior
        boundary and its predecessor alike, so only the two endpoints can
        have become redundant — and because the canonical form is a pure
        function of the level profile plus live commitments, a
        commit-then-release round trip restores the lists byte-identically
        (the rollback oracle in :mod:`repro.pathadm.fingerprint`).
        """
        times = self._times
        levels = self._levels
        if hi != lo and levels[hi] == levels[hi - 1]:
            del times[hi]
            del levels[hi]
        if levels[lo] == levels[lo - 1]:
            del times[lo]
            del levels[lo]

    def _ensure_boundaries(self, start: float, end: float) -> tuple[int, int]:
        """Materialize boundaries at ``start`` and ``end``; return their indices."""
        times = self._times
        levels = self._levels
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
        return lo, hi

    @staticmethod
    def _check_window(start: float, end: float) -> None:
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")

    def _check_commitment(self, bandwidth_kbps: int, start: float, end: float) -> None:
        self._check_window(start, end)
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        if start == _NEG_INF or end == float("inf"):
            raise ValueError("commitment window must be finite")
