"""Discrete-event simulation core.

A classic heap-based event loop.  The loop drives a shared
:class:`~repro.clock.SimClock` so that every component that takes a clock
(border routers, policers, traffic sources) observes simulation time
without any plumbing changes.
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
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        # Not via schedule_at: this is once per event, and a delay >= 0 cannot
        # land in the past.
        heapq.heappush(
            self._queue, (self.clock.now() + delay, next(self._sequence), callback, args)
        )

    def schedule_at(self, when: float, callback: Callable[..., None], *args) -> None:
        """Run ``callback(*args)`` at absolute time ``when``.

        An event carries its arguments, so a per-packet caller schedules a
        bound method and the packet instead of allocating a closure.

        Events scheduled for the **same timestamp run in FIFO order**: each
        entry carries a monotonically increasing sequence number that breaks
        heap ties, so equal-time callbacks execute in the order they were
        scheduled (and no comparison ever reaches the callbacks themselves).
        """
        if when < self.clock.now():
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (when, next(self._sequence), callback, args))

    def run_until(self, end_time: float, max_events: int = 10_000_000) -> int:
        """Process events up to ``end_time``; returns the number executed.

        The clock ends at ``end_time`` unless ``max_events`` stopped the loop
        with events at or before ``end_time`` still queued: then it stays at
        the last event run, so a later call can pick those up.
        """
        queue = self._queue
        executed = 0
        while queue and executed < max_events:
            when = queue[0][0]
            if when > end_time:
                break
            _, _, callback, args = heapq.heappop(queue)
            self.clock.set(when)
            callback(*args)
            executed += 1
        if not queue or queue[0][0] > end_time:
            self.clock.set(max(self.clock.now(), end_time))
        self._events_run += executed
        return executed

    @property
    def events_run(self) -> int:
        """Total events executed across all :meth:`run_until` calls."""
        return self._events_run

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def now(self) -> float:
        return self.clock.now()
