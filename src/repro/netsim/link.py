"""Links with strict priority queueing.

A link models the inter-AS wire *and* the egress queues in front of it: a
serial transmitter at ``rate_bps`` with two independent drop-tail buffers —
a priority queue (flyover traffic) and a best-effort queue.  Strict
priority: the transmitter always drains the priority queue first, which is
exactly the prioritization Hummingbird requires from the underlying AS
(§3.1 — reservation traffic is shielded from best-effort congestion, and
unused reservation bandwidth remains usable by best effort).  The buffers
are per class, as in any DiffServ-style router: a best-effort flood cannot
occupy the priority queue's memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.netsim.events import EventLoop


@dataclass
class LinkStats:
    delivered_priority: int = 0
    delivered_best_effort: int = 0
    dropped_priority: int = 0
    dropped_best_effort: int = 0
    busy_seconds: float = 0.0


# A queued packet: (payload, size in bytes, deliver callback).
_Queued = tuple[object, int, Callable[[object], None]]


class Link:
    """A unidirectional link with two drop-tail queues and strict priority."""

    def __init__(
        self,
        loop: EventLoop,
        rate_bps: float,
        propagation_delay: float = 0.001,
        buffer_bytes: int = 256_000,
        name: str = "link",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.loop = loop
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.buffer_bytes = buffer_bytes
        self.name = name
        self.stats = LinkStats()
        self._priority: deque[_Queued] = deque()
        self._best_effort: deque[_Queued] = deque()
        self._priority_bytes = 0
        self._best_effort_bytes = 0
        self._transmitting = False

    # -- API -------------------------------------------------------------------

    def send(
        self,
        payload: object,
        size_bytes: int,
        priority: bool,
        deliver: Callable[[object], None],
    ) -> bool:
        """Enqueue a packet; returns False if its class buffer dropped it."""
        item = (payload, size_bytes, deliver)
        if priority:
            if self._priority_bytes + size_bytes > self.buffer_bytes:
                self.stats.dropped_priority += 1
                return False
            self._priority.append(item)
            self._priority_bytes += size_bytes
        else:
            if self._best_effort_bytes + size_bytes > self.buffer_bytes:
                self.stats.dropped_best_effort += 1
                return False
            self._best_effort.append(item)
            self._best_effort_bytes += size_bytes
        if not self._transmitting:
            self._start_next()
        return True

    def utilization(self, elapsed: float) -> float:
        return self.stats.busy_seconds / elapsed if elapsed > 0 else 0.0

    # -- internals ----------------------------------------------------------------

    def _start_next(self) -> None:
        if self._priority:
            payload, size_bytes, deliver = self._priority.popleft()
            is_priority = True
            self._priority_bytes -= size_bytes
        elif self._best_effort:
            payload, size_bytes, deliver = self._best_effort.popleft()
            is_priority = False
            self._best_effort_bytes -= size_bytes
        else:
            self._transmitting = False
            return
        self._transmitting = True
        tx_seconds = size_bytes * 8 / self.rate_bps
        self.stats.busy_seconds += tx_seconds
        self.loop.schedule(tx_seconds, self._on_tx_done, payload, deliver, is_priority)

    def _on_tx_done(
        self, payload: object, deliver: Callable[[object], None], is_priority: bool
    ) -> None:
        if is_priority:
            self.stats.delivered_priority += 1
        else:
            self.stats.delivered_best_effort += 1
        self.loop.schedule(self.propagation_delay, deliver, payload)
        self._start_next()
