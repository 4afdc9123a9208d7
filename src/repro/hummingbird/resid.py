"""Online ResID assignment as interval colouring (§4.4).

Reservations on one ingress interface are time intervals; assigning ResIDs
such that concurrently active reservations never share an ID is exactly the
*online interval colouring* problem.  The prototype uses online First-Fit
(Gyárfás & Lehel), whose competitiveness is bounded (the optimal online
algorithm achieves R = 3; First-Fit is at least 5 in the worst case but much
better on practical workloads — the ablation bench measures this).

``ResIdAllocator`` also enforces the AS's capacity policy: with a total
reservable bandwidth ``TotalBW`` and a minimum reservation size ``MinBW``,
at most ``TotalBW/MinBW`` reservations are concurrently active, and the AS
sizes its policing array as ``R * TotalBW / MinBW`` (§4.4 examples: 24 MB
for 100 Gbps / 100 kbps, 600 kB for 100 Gbps / 4 Mbps).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

COMPETITIVENESS = 3  # R of §4.4, the optimal online colouring's bound


@dataclass(frozen=True)
class Interval:
    """A half-open reservation validity interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty interval [{self.start}, {self.end})")


@dataclass
class _ColorTrack:
    """Sorted interval bookkeeping for one colour (one ResID)."""

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)

    def conflicts(self, interval: Interval) -> bool:
        """Does ``interval`` overlap any interval assigned to this colour?"""
        index = bisect.bisect_right(self.starts, interval.start)
        if index > 0 and self.ends[index - 1] > interval.start:
            return True
        if index < len(self.starts) and self.starts[index] < interval.end:
            return True
        return False

    def insert(self, interval: Interval) -> None:
        index = bisect.bisect_right(self.starts, interval.start)
        self.starts.insert(index, interval.start)
        self.ends.insert(index, interval.end)

    def remove(self, interval: Interval) -> None:
        index = bisect.bisect_left(self.starts, interval.start)
        while index < len(self.starts) and self.starts[index] == interval.start:
            if self.ends[index] == interval.end:
                del self.starts[index]
                del self.ends[index]
                return
            index += 1
        raise KeyError(f"interval {interval} not assigned to this colour")


class FirstFitColoring:
    """Online First-Fit interval colouring.

    >>> coloring = FirstFitColoring()
    >>> coloring.assign(Interval(0, 10))
    0
    >>> coloring.assign(Interval(5, 15))
    1
    >>> coloring.assign(Interval(10, 20))  # first interval ended; colour 0 free
    0
    """

    def __init__(self) -> None:
        self._tracks: list[_ColorTrack] = []

    def first_fit(self, interval: Interval) -> int:
        """The lowest colour with no overlapping assignment (a new one if none)."""
        for color, track in enumerate(self._tracks):
            if not track.conflicts(interval):
                return color
        return len(self._tracks)

    def take(self, color: int, interval: Interval) -> None:
        """Record ``interval`` under ``color``, a :meth:`first_fit` answer."""
        if color == len(self._tracks):
            self._tracks.append(_ColorTrack())
        self._tracks[color].insert(interval)

    def assign(self, interval: Interval) -> int:
        """Give ``interval`` the lowest colour with no overlapping assignment."""
        color = self.first_fit(interval)
        self.take(color, interval)
        return color

    def release(self, color: int, interval: Interval) -> None:
        """Remove a finished interval so its colour can be reused."""
        self._tracks[color].remove(interval)

    @property
    def colors_in_use(self) -> int:
        return len(self._tracks)


class ResIdAllocator:
    """Per-ingress-interface ResID assignment with a capacity policy.

    ``capacity`` bounds the highest assignable ResID (the policing-array
    size); exceeding it raises, which on the control plane surfaces as "no
    bandwidth available" before any asset is sold.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._coloring = FirstFitColoring()

    def allocate(self, start: float, end: float) -> int:
        interval = Interval(start, end)
        res_id = self._coloring.first_fit(interval)
        if res_id >= self.capacity:  # refused before anything is recorded
            raise CapacityExhausted(
                f"ResID {res_id} exceeds policing capacity {self.capacity}"
            )
        self._coloring.take(res_id, interval)
        return res_id

    def release(self, res_id: int, start: float, end: float) -> None:
        """Hand a ResID back (a delivery that failed after allocating it)."""
        self._coloring.release(res_id, Interval(start, end))


class CapacityExhausted(RuntimeError):
    """The AS cannot police more concurrent reservations on this interface."""


def policing_array_bytes(total_bw_kbps: int, min_bw_kbps: int) -> int:
    """Worst-case policing array size per §4.4: 8 B * R * TotalBW / MinBW."""
    if min_bw_kbps <= 0:
        raise ValueError("minimum bandwidth must be positive")
    res_id_max = COMPETITIVENESS * total_bw_kbps // min_bw_kbps
    return 8 * res_id_max
