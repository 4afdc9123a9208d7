"""Explicit clocks.

Nothing in the library reads the wall clock directly: sources, routers, the
ledger, and the network simulator all take a :class:`Clock`; tests,
benchmarks and examples use :class:`SimClock` for determinism.
"""

from __future__ import annotations

from typing import Protocol


class Clock(Protocol):
    """A monotonic-enough source of seconds since the Unix epoch."""

    def now(self) -> float:
        """Current time in seconds."""
        ...


class SimClock:
    """A manually advanced clock for deterministic simulations.

    >>> clock = SimClock(100.0)
    >>> clock.advance(2.5)
    >>> clock.now()
    102.5

    ``time`` is the reading itself: the netsim event loop, which advances
    it once per event, reads and writes it directly and keeps it from
    moving backwards as :meth:`set` does.
    """

    __slots__ = ("time",)

    def __init__(self, start: float = 1_700_000_000.0) -> None:
        self.time = float(start)

    def now(self) -> float:
        return self.time

    def advance(self, delta: float) -> None:
        if delta < 0:
            raise ValueError("time cannot move backwards")
        self.time += delta

    def set(self, value: float) -> None:
        if value < self.time:
            raise ValueError("time cannot move backwards")
        self.time = float(value)
