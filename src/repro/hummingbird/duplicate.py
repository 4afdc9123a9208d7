"""Optional duplicate suppression (§5.4, Fig. 13).

Hummingbird deliberately does *not* require duplicate suppression — there is
no penalty for overuse, so framing attacks are moot, and the only attack it
would prevent (on-reservation-set DoS) has the cheaper mitigation of
per-path reservations.  The header nevertheless carries a unique
``(BaseTimestamp, MillisTimestamp, Counter)`` triple per packet so that ASes
*can* deploy suppression incrementally; this module is that optional
component.

Duplicates are demoted to best effort (not dropped): a replayed packet must
not consume reservation bandwidth, but dropping it would let an on-path
adversary degrade the connection below best effort by racing the original.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.wire.timestamps import CLOCK_SKEW, MAX_PACKET_AGE

# A packet ID is kept as long as a router would take the packet as fresh:
# the freshness window [-δ, Δ + δ] is Δ + 2δ long.
WINDOW = MAX_PACKET_AGE + 2 * CLOCK_SKEW
MAX_ENTRIES = 1 << 20  # FIFO bound, so an adversary cannot blow up router state


class DuplicateFilter:
    """Sliding-window replay filter over packet timestamp triples.

    A packet ID is the triple under its reservation, and a reservation is
    named by (ingress interface, ResID): ResIDs are unique per ingress only,
    as the policer keys them, so two flows entering on different interfaces
    may carry the same ResID and the same triple without either replaying
    the other.

    Entries expire after :data:`WINDOW` seconds; memory is bounded by
    :data:`MAX_ENTRIES` with FIFO eviction.
    """

    def __init__(self) -> None:
        self._seen: OrderedDict[tuple[int, int, int, int, int], float] = OrderedDict()

    def is_duplicate(
        self, ingress: int, res_id: int, base: int, millis: int, counter: int, now: float
    ) -> bool:
        """Record the packet ID and report whether it was already seen."""
        self._expire(now)
        key = (ingress, res_id, base, millis, counter)
        if key in self._seen:
            return True
        self._seen[key] = now
        if len(self._seen) > MAX_ENTRIES:
            self._seen.popitem(last=False)
        return False

    def _expire(self, now: float) -> None:
        cutoff = now - WINDOW
        while self._seen:
            key, seen_at = next(iter(self._seen.items()))
            if seen_at >= cutoff:
                break
            del self._seen[key]

    def __len__(self) -> int:
        return len(self._seen)
