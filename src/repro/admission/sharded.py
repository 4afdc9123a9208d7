"""Time-sharded capacity calendars: one hot object per *day*, not per link.

A single :class:`~repro.admission.calendar.CapacityCalendar` per
(interface, direction) serializes every admit/release on a busy link
through one sorted boundary list: point mutations pay an ``O(n)`` list
insert against *all* boundaries ever committed, and ``expire`` rescans
every live commitment.  At 10^6..10^7 reservations per link — the scale
Hummingbird's admission story targets — that single object is the
bottleneck, the same per-link hot spot Flyover-style reservation systems
shard away.

:class:`ShardedCalendar` splits the **time axis** into fixed-width
segments (``shard_seconds``, default one day), each backed by an
independent :class:`CapacityCalendar`:

* point operations touch only the shards a window overlaps — a two-hour
  reservation lands in one (occasionally two) day-shards, so the boundary
  lists it mutates hold one day's commitments, not the whole horizon;
* a commitment spanning a shard boundary is **recorded once** at the top
  level and *projected* into each overlapped shard as a clipped piece;
  every piece carries the commitment's tag, so per-shard ``tag_peak``
  sweeps stay exact;
* ``bulk_peak`` partitions the query windows per shard and reduces with
  one vectorized pass per shard — each pass runs against that shard's
  (small) compiled step function;
* ``expire(now)`` drops whole shards strictly behind ``now`` in O(1)
  each, instead of scanning every commitment; only the single shard
  containing ``now`` is swept piecewise.

The deliberate semantic relaxation: dropping a shard forgets the
*history* of commitments that extend past ``now`` (their pieces behind
``now`` vanish), so queries about windows before the expire watermark may
under-report.  Admission only ever asks about the present and future, so
the monolithic and sharded calendars agree exactly on every window at or
after the watermark — the property the differential suite in
``tests/admission/test_sharded_property.py`` drives.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from repro.admission.calendar import (
    AdmissionRejected,
    CapacityCalendar,
    Commitment,
    _commitment_rows,
)

# One projected piece: (the shard calendar holding it, its shard key, the
# piece's commitment id *inside that shard*).  The calendar object itself is
# kept so a stale piece — its shard dropped by expire and possibly re-created
# later with fresh ids — can be detected by identity instead of colliding.
_Piece = tuple[CapacityCalendar, int, int]


class ShardedCalendar:
    """Committed-bandwidth ledger sharded into fixed-width time segments.

    Drop-in replacement for :class:`CapacityCalendar`: same mutation and
    query surface, same admission semantics, same
    :class:`~repro.admission.calendar.Commitment` records.  Shards are
    created on demand and dropped when emptied or expired, so memory
    tracks the *live* horizon, not calendar history.

    >>> calendar = ShardedCalendar(capacity_kbps=1000, shard_seconds=100)
    >>> spanning = calendar.admit(600, 50, 250)      # projects into 3 shards
    >>> calendar.shard_count
    3
    >>> calendar.peak_commitment(0, 300)
    600
    >>> calendar.admit(600, 240, 260)                # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.admission.calendar.AdmissionRejected: ...
    """

    def __init__(self, capacity_kbps: int, shard_seconds: float = 86_400.0) -> None:
        if capacity_kbps <= 0:
            raise ValueError("capacity must be positive")
        if not shard_seconds > 0:
            raise ValueError("shard width must be positive")
        self.capacity_kbps = int(capacity_kbps)
        self.shard_seconds = float(shard_seconds)
        self._shards: dict[int, CapacityCalendar] = {}
        self._commitments: dict[int, Commitment] = {}
        self._by_end_shard: dict[int, set[int]] = {}  # end shard key -> ids
        self._projections: dict[int, list[_Piece]] = {}
        self._ids = itertools.count()
        #: Lifetime count of whole shards discarded by :meth:`expire`
        #: (telemetry reads this as a monotonic counter).
        self.shards_dropped = 0

    # Same validation rules (and error messages) as the monolithic calendar.
    _check_window = staticmethod(CapacityCalendar._check_window)
    _check_commitment = CapacityCalendar._check_commitment

    # Projection materializes one piece per overlapped shard, so a single
    # commitment spanning millions of shards (a mistyped far-future end, or
    # a shard width far too small for the workload's horizon) would hang the
    # dense key loop and exhaust memory before any admission check ran.
    MAX_SPAN_SHARDS = 100_000

    def _check_span(self, start: float, end: float) -> None:
        span = self._last_key(end) - self._first_key(start) + 1
        if span > self.MAX_SPAN_SHARDS:
            raise ValueError(
                f"commitment [{start}, {end}) spans {span} shards of "
                f"{self.shard_seconds}s (limit {self.MAX_SPAN_SHARDS}); "
                "use a larger shard_seconds for horizons this long"
            )

    # -- shard geometry -----------------------------------------------------------

    def _first_key(self, start: float) -> int:
        return math.floor(start / self.shard_seconds)

    def _last_key(self, end: float) -> int:
        """Shard containing the window's last instant (``end`` exclusive)."""
        return math.ceil(end / self.shard_seconds) - 1

    def _shard(self, key: int) -> CapacityCalendar:
        found = self._shards.get(key)
        if found is None:
            found = CapacityCalendar(self.capacity_kbps)
            self._shards[key] = found
        return found

    def _overlapping(self, start: float, end: float):
        """Existing shards intersecting ``[start, end)``, in key order."""
        first, last = self._first_key(start), self._last_key(end)
        if last - first + 1 <= len(self._shards):
            for key in range(first, last + 1):
                calendar = self._shards.get(key)
                if calendar is not None:
                    yield key, calendar
        else:  # sparse shards under a huge window: walk the dict instead
            for key in sorted(self._shards):
                if first <= key <= last:
                    yield key, self._shards[key]

    def _clip(self, key: int, start: float, end: float) -> tuple[float, float]:
        width = self.shard_seconds
        return max(start, key * width), min(end, (key + 1) * width)

    # -- queries ------------------------------------------------------------------

    def peak_commitment(self, start: float, end: float) -> int:
        """Maximum committed kbps anywhere in ``[start, end)``."""
        CapacityCalendar._check_window(start, end)
        peak = 0
        for key, calendar in self._overlapping(start, end):
            clip_start, clip_end = self._clip(key, start, end)
            peak = max(peak, calendar.peak_commitment(clip_start, clip_end))
        return peak

    def headroom(self, start: float, end: float) -> int:
        return self.capacity_kbps - self.peak_commitment(start, end)

    def utilization(self, start: float, end: float) -> float:
        return self.peak_commitment(start, end) / self.capacity_kbps

    def mean_commitment(self, start: float, end: float) -> float:
        """Time-weighted average committed kbps over ``[start, end)``."""
        CapacityCalendar._check_window(start, end)
        total = 0.0
        for key, calendar in self._overlapping(start, end):
            clip_start, clip_end = self._clip(key, start, end)
            total += calendar.mean_commitment(clip_start, clip_end) * (
                clip_end - clip_start
            )
        return total / (end - start)  # missing shards contribute level 0

    def tag_peak(self, tag: str, start: float, end: float) -> int:
        """Peak committed kbps attributable to one tag over the window.

        Every projected piece carries its commitment's tag and any time
        instant lives in exactly one shard, so the window's tag peak is the
        max of the per-shard sweeps over the clipped windows.
        """
        CapacityCalendar._check_window(start, end)
        peak = 0
        for key, calendar in self._overlapping(start, end):
            clip_start, clip_end = self._clip(key, start, end)
            peak = max(peak, calendar.tag_peak(tag, clip_start, clip_end))
        return peak

    # -- vectorized bulk path -----------------------------------------------------

    def bulk_peak(self, starts, ends) -> np.ndarray:
        """Vectorized :meth:`peak_commitment` over parallel window arrays.

        Query windows are partitioned per shard: each shard sees only the
        windows overlapping its span, clipped to it, and answers them with
        one vectorized :meth:`CapacityCalendar.bulk_peak` pass; the per-
        shard answers reduce into the output with ``np.maximum``.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if starts.shape != ends.shape:
            raise ValueError("starts and ends must have the same shape")
        if starts.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not np.all(ends > starts):
            raise ValueError("every window must satisfy end > start")
        out = np.zeros(starts.shape, dtype=np.int64)
        width = self.shard_seconds
        for key, calendar in self._overlapping(float(starts.min()), float(ends.max())):
            shard_start, shard_end = key * width, (key + 1) * width
            mask = (starts < shard_end) & (ends > shard_start)
            if not mask.any():
                continue
            clipped_starts = np.maximum(starts[mask], shard_start)
            clipped_ends = np.minimum(ends[mask], shard_end)
            out[mask] = np.maximum(
                out[mask], calendar.bulk_peak(clipped_starts, clipped_ends)
            )
        return out

    def bulk_headroom(self, starts, ends) -> np.ndarray:
        return self.capacity_kbps - self.bulk_peak(starts, ends)

    def bulk_admissible(self, bandwidth_kbps, starts, ends) -> np.ndarray:
        bandwidth = np.asarray(bandwidth_kbps, dtype=np.int64)
        return self.bulk_peak(starts, ends) + bandwidth <= self.capacity_kbps

    # -- mutations ----------------------------------------------------------------

    def admit(self, bandwidth_kbps: int, start: float, end: float, tag: str = "") -> Commitment:
        """Commit the bandwidth if it fits; raise :class:`AdmissionRejected`."""
        self._check_commitment(int(bandwidth_kbps), start, end)
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
        """Commit if every shard still has headroom; ``None`` otherwise.

        The non-raising fused form of :meth:`admit`: one pass peak-checks
        the existing shards (missing shards are empty and always fit), a
        second pass commits the per-shard pieces — instead of a full
        ``headroom`` walk followed by an independent ``commit`` walk.
        """
        bandwidth_kbps = int(bandwidth_kbps)
        self._check_commitment(bandwidth_kbps, start, end)
        self._check_span(start, end)
        limit = self.capacity_kbps - bandwidth_kbps
        for key, calendar in self._overlapping(start, end):
            clip_start, clip_end = self._clip(key, start, end)
            if calendar.peak_commitment(clip_start, clip_end) > limit:
                return None
        return self._commit_checked(bandwidth_kbps, start, end, tag)

    def commit(self, bandwidth_kbps: int, start: float, end: float, tag: str = "") -> Commitment:
        """Record a commitment unconditionally, projected into its shards."""
        bandwidth_kbps = int(bandwidth_kbps)
        self._check_commitment(bandwidth_kbps, start, end)
        self._check_span(start, end)
        return self._commit_checked(bandwidth_kbps, start, end, tag)

    def _commit_checked(
        self, bandwidth_kbps: int, start: float, end: float, tag: str
    ) -> Commitment:
        commitment = Commitment(
            next(self._ids), bandwidth_kbps, float(start), float(end), tag
        )
        pieces: list[_Piece] = []
        for key in range(self._first_key(start), self._last_key(end) + 1):
            calendar = self._shard(key)
            clip_start, clip_end = self._clip(key, start, end)
            piece = calendar.commit(bandwidth_kbps, clip_start, clip_end, tag)
            pieces.append((calendar, key, piece.commitment_id))
        self._register(commitment, pieces)
        return commitment

    def commit_batch(self, bandwidths, starts, ends, tag: str = "", track: bool = True):
        """Bulk-load many commitments, one vectorized pass per shard.

        Rows are partitioned by the shard their (remaining) window starts
        in; each shard takes its pieces in a single
        :meth:`CapacityCalendar.commit_batch`, and rows extending past the
        shard edge carry over to the next round clipped at the boundary —
        total work is proportional to the number of *pieces*, and each
        shard rebuilds only its own (small) step function.
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
        if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(ends))):
            raise ValueError("commitment window must be finite")
        widest = int(np.argmax(ends - starts))
        self._check_span(float(starts[widest]), float(ends[widest]))
        width = self.shard_seconds
        pieces_by_row: list[list[_Piece]] | None = (
            [[] for _ in range(starts.size)] if track else None
        )
        row_ids = np.arange(starts.size)
        cursor_starts, cursor_ends, cursor_bws = starts, ends, bandwidths
        while cursor_starts.size:
            keys = np.floor_divide(cursor_starts, width).astype(np.int64)
            piece_ends = np.minimum(cursor_ends, (keys + 1) * width)
            order = np.argsort(keys, kind="stable")
            breaks = np.flatnonzero(np.diff(keys[order])) + 1
            for group in np.split(order, breaks):
                key = int(keys[group[0]])
                calendar = self._shard(key)
                committed = calendar.commit_batch(
                    cursor_bws[group],
                    cursor_starts[group],
                    piece_ends[group],
                    tag=tag,
                    track=track,
                )
                if track:
                    for position, piece in zip(group, committed):
                        pieces_by_row[int(row_ids[position])].append(
                            (calendar, key, piece.commitment_id)
                        )
            carry = piece_ends < cursor_ends
            cursor_starts = piece_ends[carry]
            cursor_ends = cursor_ends[carry]
            cursor_bws = cursor_bws[carry]
            row_ids = row_ids[carry]
        if not track:
            return None
        commitments = [
            Commitment(next(self._ids), int(bw), float(s), float(e), tag)
            for bw, s, e in zip(bandwidths, starts, ends)
        ]
        for commitment, pieces in zip(commitments, pieces_by_row):
            self._register(commitment, pieces)
        return commitments

    def release(self, commitment_id: int) -> Commitment:
        """Return a commitment's bandwidth to every shard it touches."""
        if commitment_id not in self._commitments:
            raise KeyError(f"unknown commitment {commitment_id}")
        commitment, pieces = self._unregister(commitment_id)
        self._release_pieces(pieces)
        return commitment

    def expire(self, now: float) -> int:
        """Release everything ended by ``now``; drop whole shards behind it.

        Shards whose span lies entirely at or before ``now`` are discarded
        in O(1) each — their pieces (and any untracked bulk load) vanish
        wholesale.  Tracked commitments ending inside those shards are
        counted via the end-shard index without touching their pieces;
        only commitments ending inside the single shard that contains
        ``now`` need a piecewise release.
        """
        now = float(now)
        width = self.shard_seconds
        for key in [k for k in self._shards if (k + 1) * width <= now]:
            del self._shards[key]
            self.shards_dropped += 1
        released = 0
        for key in [k for k in self._by_end_shard if (k + 1) * width <= now]:
            # End shard fully behind now => every piece lived in a dropped
            # shard; unregister without releasing anything piecewise.
            for commitment_id in list(self._by_end_shard[key]):
                self._unregister(commitment_id)
                released += 1
        for key in [
            k for k in self._by_end_shard if k * width < now < (k + 1) * width
        ]:
            for commitment_id in list(self._by_end_shard[key]):
                if self._commitments[commitment_id].end <= now:
                    _, pieces = self._unregister(commitment_id)
                    self._release_pieces(pieces)
                    released += 1
        return released

    def reclaim(self, commitment_id: int, new_bandwidth_kbps: int) -> Commitment:
        """Shrink a live commitment in place across every shard it touches.

        Piece ids stay stable (like :meth:`transfer`), so the projections
        and the end-shard index are untouched; pieces whose shard was
        dropped by :meth:`expire` are skipped.  Strictly partial — full
        reclamation is :meth:`release`.
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
        for calendar, key, piece_id in self._projections[commitment_id]:
            if self._shards.get(key) is calendar:
                calendar.reclaim(piece_id, new_bandwidth_kbps)
        shrunk = dataclasses.replace(commitment, bandwidth_kbps=new_bandwidth_kbps)
        self._commitments[commitment_id] = shrunk
        return shrunk

    # -- commitment surgery (mirrors asset split/fuse/transfer) -------------------

    def split_time(self, commitment_id: int, at: float) -> tuple[Commitment, Commitment]:
        """Split one commitment at ``at``; the committed profile is unchanged."""
        commitment = self._commitments[commitment_id]
        if not commitment.start < at < commitment.end:
            raise ValueError(
                f"split point {at} outside ({commitment.start}, {commitment.end})"
            )
        commitment, pieces = self._unregister(commitment_id)
        first = Commitment(
            next(self._ids), commitment.bandwidth_kbps, commitment.start, at, commitment.tag
        )
        second = Commitment(
            next(self._ids), commitment.bandwidth_kbps, at, commitment.end, commitment.tag
        )
        first_pieces: list[_Piece] = []
        second_pieces: list[_Piece] = []
        for calendar, key, piece_id in pieces:
            if self._shards.get(key) is not calendar:
                continue  # piece history dropped by expire
            piece = calendar.get(piece_id)
            if piece.end <= at:
                first_pieces.append((calendar, key, piece_id))
            elif piece.start >= at:
                second_pieces.append((calendar, key, piece_id))
            else:  # the split point lands inside this shard's piece
                head, tail = calendar.split_time(piece_id, at)
                first_pieces.append((calendar, key, head.commitment_id))
                second_pieces.append((calendar, key, tail.commitment_id))
        self._register(first, first_pieces)
        self._register(second, second_pieces)
        return first, second

    def split_bandwidth(
        self, commitment_id: int, bandwidth_kbps: int
    ) -> tuple[Commitment, Commitment]:
        """Split one commitment into two stacked bandwidth shares."""
        commitment = self._commitments[commitment_id]
        if not 0 < bandwidth_kbps < commitment.bandwidth_kbps:
            raise ValueError(
                f"split bandwidth {bandwidth_kbps} outside (0, {commitment.bandwidth_kbps})"
            )
        commitment, pieces = self._unregister(commitment_id)
        first = Commitment(
            next(self._ids),
            commitment.bandwidth_kbps - bandwidth_kbps,
            commitment.start,
            commitment.end,
            commitment.tag,
        )
        second = Commitment(
            next(self._ids),
            int(bandwidth_kbps),
            commitment.start,
            commitment.end,
            commitment.tag,
        )
        first_pieces: list[_Piece] = []
        second_pieces: list[_Piece] = []
        for calendar, key, piece_id in pieces:
            if self._shards.get(key) is not calendar:
                continue
            head, tail = calendar.split_bandwidth(piece_id, bandwidth_kbps)
            first_pieces.append((calendar, key, head.commitment_id))
            second_pieces.append((calendar, key, tail.commitment_id))
        self._register(first, first_pieces)
        self._register(second, second_pieces)
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
            raise ValueError(
                "commitments neither same-window nor time-adjacent with equal bandwidth"
            )
        _, a_pieces = self._unregister(first_id)
        _, b_pieces = self._unregister(second_id)
        if b.tag != a.tag:  # the fused record carries a's tag; re-label b's pieces
            for calendar, key, piece_id in b_pieces:
                if self._shards.get(key) is calendar:
                    calendar.transfer(piece_id, a.tag)
        if (a.start, a.end) == (b.start, b.end):
            pieces = self._fuse_stacked_pieces(a_pieces, b_pieces)
        else:
            pieces = a_pieces + b_pieces
        self._register(fused, pieces)
        return fused

    def _fuse_stacked_pieces(
        self, a_pieces: list[_Piece], b_pieces: list[_Piece]
    ) -> list[_Piece]:
        """Stack two same-window commitments' per-shard projections.

        Every inner piece must carry exactly its commitment's bandwidth —
        ``split_bandwidth`` splits each shard's piece by the same absolute
        share as the outer record.  Concatenating the arms' pieces would
        leave each at its own (smaller) bandwidth, so the pieces are fused
        per shard: first each arm's time-adjacent chain, then the two
        stacked projections.
        """

        def coalesce(pieces: list[_Piece]) -> dict:
            by_key: dict[tuple, tuple] = {}
            for calendar, key, piece_id in pieces:
                if self._shards.get(key) is not calendar:
                    continue  # piece history dropped by expire
                by_key.setdefault(key, (calendar, []))[1].append(piece_id)
            merged = {}
            for key, (calendar, ids) in by_key.items():
                ids.sort(key=lambda piece_id: calendar.get(piece_id).start)
                fused_id = ids[0]
                for piece_id in ids[1:]:
                    fused_id = calendar.fuse(fused_id, piece_id).commitment_id
                merged[key] = (calendar, fused_id)
            return merged

        merged_a = coalesce(a_pieces)
        merged_b = coalesce(b_pieces)
        pieces: list[_Piece] = []
        for key, (calendar, piece_id) in merged_a.items():
            if key in merged_b:
                _, other_id = merged_b.pop(key)
                piece_id = calendar.fuse(piece_id, other_id).commitment_id
            pieces.append((calendar, key, piece_id))
        for key, (calendar, piece_id) in merged_b.items():
            pieces.append((calendar, key, piece_id))
        return pieces

    def transfer(self, commitment_id: int, tag: str) -> Commitment:
        """Re-label a commitment (ownership moved, e.g. a resold asset)."""
        commitment, pieces = self._unregister(commitment_id)
        transferred = dataclasses.replace(commitment, tag=tag)
        for calendar, key, piece_id in pieces:
            if self._shards.get(key) is calendar:
                calendar.transfer(piece_id, tag)  # keeps the piece id stable
        self._register(transferred, pieces)
        return transferred

    # -- introspection ------------------------------------------------------------

    @property
    def commitment_count(self) -> int:
        return len(self._commitments)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def boundary_count(self) -> int:
        """Total boundaries across shards (shard edges count per shard)."""
        return sum(calendar.boundary_count for calendar in self._shards.values())

    def commitments(self) -> list[Commitment]:
        return list(self._commitments.values())

    def get(self, commitment_id: int) -> Commitment:
        return self._commitments[commitment_id]

    def fingerprint(self) -> tuple:
        """Hashable canonical form of this calendar's complete state.

        Canonicalizes the shard map (each shard's own
        :meth:`CapacityCalendar.fingerprint`), the top-level commitment
        records, the end-shard index, and the piece projections; excludes
        the id counter and per-shard numpy caches.
        """
        return (
            "sharded",
            self.capacity_kbps,
            self.shard_seconds,
            self.shards_dropped,
            tuple(
                sorted(
                    (key, shard.fingerprint())
                    for key, shard in self._shards.items()
                )
            ),
            _commitment_rows(self._commitments),
            tuple(
                sorted(
                    (key, tuple(sorted(ids)))
                    for key, ids in self._by_end_shard.items()
                )
            ),
            tuple(
                sorted(
                    (cid, tuple((key, piece_id) for _, key, piece_id in pieces))
                    for cid, pieces in self._projections.items()
                )
            ),
        )

    # -- internals ----------------------------------------------------------------

    def _register(self, commitment: Commitment, pieces: list[_Piece]) -> None:
        commitment_id = commitment.commitment_id
        self._commitments[commitment_id] = commitment
        self._by_end_shard.setdefault(self._last_key(commitment.end), set()).add(
            commitment_id
        )
        self._projections[commitment_id] = pieces

    def _unregister(self, commitment_id: int) -> tuple[Commitment, list[_Piece]]:
        commitment = self._commitments.pop(commitment_id)
        pieces = self._projections.pop(commitment_id)
        end_key = self._last_key(commitment.end)
        ending = self._by_end_shard.get(end_key)
        if ending is not None:
            ending.discard(commitment_id)
            if not ending:
                del self._by_end_shard[end_key]
        return commitment, pieces

    def _release_pieces(self, pieces: list[_Piece]) -> None:
        for calendar, key, piece_id in pieces:
            if self._shards.get(key) is not calendar:
                continue  # shard already dropped by expire
            calendar.release(piece_id)
            if calendar.commitment_count == 0 and calendar.boundary_count == 0:
                del self._shards[key]  # fully flat again: reclaim the shard
