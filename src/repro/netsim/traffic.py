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
        rng: random.Random | None = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.loop = loop
        self.builder = builder
        self.entry = entry
        self.metrics = metrics
        self.payload_bytes = payload_bytes
        self.flow_id = flow_id
        self.jitter = jitter
        self.rng = rng if rng is not None else random.Random(flow_id)
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
        packet = self.builder.build_packet(self._payload, self.flow_id)
        now = self.loop.now
        sim_packet = SimPacket(
            packet=packet,
            flow_id=self.flow_id,
            sent_at=now,
            size_bytes=packet.packet_length(),
        )
        self.metrics.record_sent(sim_packet.size_bytes, now)
        self.entry.inject(sim_packet)
        gap = self.interval
        if self.jitter > 0:
            gap *= self.rng.uniform(1 - self.jitter, 1 + self.jitter)
        self.loop.schedule(gap, self._send)


class FloodSource(CbrSource):
    """A best-effort flooder: a DoS adversary congesting the path.

    Identical machinery to :class:`CbrSource`; the distinction is semantic
    (it sends over a best-effort builder at far above the bottleneck rate).
    """
