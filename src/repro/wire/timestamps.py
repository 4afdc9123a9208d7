"""Packet timestamp tuple (BaseTimestamp, MillisTimestamp, Counter).

The Hummingbird PathMetaHdr (Fig. 7) carries a 32-bit Unix ``BaseTimestamp``
(seconds), a 16-bit ``MillisTimestamp`` offset from the base, and a 16-bit
per-packet ``Counter``.  Together the triple must be unique per packet; the
counter exists so hosts sending more than one packet per millisecond still
produce unique tuples (and it feeds the optional duplicate suppression).

The flyover MAC (Eq. 7b) consumes ``TS = ResStartOffset || MillisTimestamp
|| Counter``; the freshness check (Algorithm 3) compares ``BaseTimestamp ||
MillisTimestamp`` to the router clock.
"""

from __future__ import annotations

from dataclasses import dataclass

MILLIS_RANGE = 1 << 16
COUNTER_RANGE = 1 << 16

# Freshness (§3.2): a router takes a packet as fresh while its timestamp is
# at most Δ old, with δ of slack either way for host and AS clocks.
MAX_PACKET_AGE = 1.0  # Δ, seconds
CLOCK_SKEW = 0.5  # δ, seconds


@dataclass(frozen=True, init=False)
class PacketTimestamp:
    """The unique per-packet (base, millis, counter) triple."""

    base: int  # 32-bit Unix seconds
    millis: int  # 16-bit millisecond offset from base
    counter: int  # 16-bit uniqueness counter

    def __init__(self, base: int, millis: int, counter: int) -> None:
        # Hand-written: the generated frozen __init__ stores each field through
        # object.__setattr__ and calls __post_init__, and a timestamp is built
        # for every packet sent.  Writing the instance dict keeps it frozen.
        if not 0 <= base < 1 << 32:
            raise ValueError(f"BaseTimestamp {base} out of 32-bit range")
        if not 0 <= millis < MILLIS_RANGE:
            raise ValueError(f"MillisTimestamp {millis} out of 16-bit range")
        if not 0 <= counter < COUNTER_RANGE:
            raise ValueError(f"Counter {counter} out of 16-bit range")
        fields = self.__dict__
        fields["base"], fields["millis"], fields["counter"] = base, millis, counter


class TimestampAllocator:
    """Allocates unique packet timestamps for a source.

    A fresh counter value is handed out per (base, millis) pair; when the
    16-bit counter would overflow within one millisecond the allocator
    raises, because the uniqueness guarantee of the header tuple would be
    violated (a real sender would simply be rate-limited).
    """

    __slots__ = ("_base", "_last_millis", "_counter")

    def __init__(self, base: int) -> None:
        if not 0 <= base < 1 << 32:
            raise ValueError("base timestamp out of 32-bit range")
        self._base = base
        self._last_millis = -1
        self._counter = 0

    @property
    def base(self) -> int:
        return self._base

    def allocate(self, now_seconds: float) -> PacketTimestamp:
        """Return a unique timestamp for a packet sent at ``now_seconds``."""
        millis_total = round((now_seconds - self._base) * 1000)
        if millis_total < 0:
            raise ValueError("cannot allocate a timestamp before the base timestamp")
        if millis_total >= MILLIS_RANGE:
            raise ValueError(
                "millisecond offset overflow: source must refresh its BaseTimestamp"
            )
        if millis_total != self._last_millis:
            self._last_millis = millis_total
            self._counter = 0
        if self._counter >= COUNTER_RANGE:
            raise ValueError("per-millisecond counter exhausted (2^16 packets/ms)")
        timestamp = PacketTimestamp(self._base, millis_total, self._counter)
        self._counter += 1
        return timestamp
