"""Traffic sources: constant-bit-rate senders and flood attackers.

Sources build real packets through the data-plane source classes (so every
simulated packet carries genuine MACs and is verified hop by hop) and hand
them to a :class:`RouterNode`; the per-flow send metrics land in the same
:class:`FlowMetrics` the destination sink fills in.
"""

from __future__ import annotations

import random

from repro.netsim.events import EventLoop
from repro.netsim.metrics import FlowMetrics
from repro.netsim.nodes import RouterNode, SimPacket


class CbrSource:
    """Constant-bit-rate sender over a packet builder.

    ``builder`` is any object with ``build_packet(payload, flow_id)`` — a
    :class:`HummingbirdSource` (reservation traffic) or a
    :class:`ScionBestEffortSource` (plain traffic).
    """

    def __init__(
        self,
        loop: EventLoop,
        builder,
        entry: RouterNode,
        metrics: FlowMetrics,
        rate_bps: float,
        payload_bytes: int = 1000,
        flow_id: int = 1,
        jitter: float = 0.0,
        *,
        rng: random.Random,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.loop = loop
        self.builder = builder
        self.entry = entry
        self.metrics = metrics
        self.flow_id = flow_id
        self.jitter = jitter
        self.rng = rng
        # uniform(a, b) is a + (b - a) * random(); a and b - a fixed here
        self._jitter_low = 1 - jitter
        self._jitter_span = (1 + jitter) - (1 - jitter)
        self._payload = bytes(payload_bytes)
        probe = builder.build_packet(self._payload, flow_id)
        self._wire_bytes = probe.packet_length()
        self.interval = self._wire_bytes * 8 / rate_bps
        self._stopped = False

    def start(self, delay: float = 0.0) -> None:
        self.loop.schedule(delay, self._send)

    def stop(self) -> None:
        self._stopped = True

    def _send(self) -> None:
        if self._stopped:
            return
        now = self.loop.clock.time
        # Positional, in field order; a builder fixes a packet's size from
        # the payload and its header template, so every packet is the probe's.
        sim_packet = SimPacket(
            self.builder.build_packet(self._payload, self.flow_id),
            self.flow_id,
            now,
            self._wire_bytes,
        )
        self.metrics.record_sent(self._wire_bytes, now)
        self.entry.receive(0, sim_packet)
        gap = self.interval
        if self.jitter > 0:
            # random.uniform(1 - jitter, 1 + jitter) written out: the same
            # draw and the same float, without the call.
            gap *= self._jitter_low + self._jitter_span * self.rng.random()
        self.loop.schedule(gap, self._send)


class FloodSource(CbrSource):
    """A best-effort flooder: a DoS adversary congesting the path.

    Identical machinery to :class:`CbrSource`; the distinction is semantic
    (it sends over a best-effort builder at far above the bottleneck rate).
    """
