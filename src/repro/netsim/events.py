"""Discrete-event simulation core.

A classic heap-based event loop.  The loop drives a shared
:class:`~repro.clock.SimClock` so that every component that takes a clock
(border routers, policers, traffic sources) observes simulation time
without any plumbing changes.  It reads and writes the clock's time
itself, not through :meth:`~repro.clock.SimClock.set`, which would be a
call per event; it refuses time that moves backwards as ``set`` does.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.clock import SimClock


class EventLoop:
    """Priority-queue scheduler over a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock(0.0)
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._events_run = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now.

        An event carries its arguments, so a per-packet caller schedules a
        bound method and the packet instead of allocating a closure.

        Events scheduled for the **same timestamp run in FIFO order**: each
        entry carries a monotonically increasing sequence number that breaks
        heap ties, so equal-time callbacks execute in the order they were
        scheduled (and no comparison ever reaches the callbacks themselves).
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (self.clock.time + delay, next(self._sequence), callback, args)
        )

    def run_until(self, end_time: float) -> int:
        """Process events up to ``end_time``; returns the number executed.
        The clock ends at ``end_time`` unless it was already set past it."""
        queue, pop, clock = self._queue, heapq.heappop, self.clock
        executed = 0
        while queue:
            when = queue[0][0]
            if when > end_time:
                break
            if when < clock.time:  # the clock was set past a queued event
                raise ValueError("time cannot move backwards")
            _, _, callback, args = pop(queue)
            clock.time = when
            callback(*args)
            executed += 1
        if end_time > clock.time:
            clock.time = float(end_time)
        self._events_run += executed
        return executed

    @property
    def events_run(self) -> int:
        """Total events executed across all :meth:`run_until` calls."""
        return self._events_run
