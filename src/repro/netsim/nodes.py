"""Simulation nodes: border routers and host sinks.

A :class:`RouterNode` wraps a :class:`HummingbirdRouter` (which also
processes plain SCION packets) and forwards its verdicts onto per-interface
:class:`Link` objects — priority traffic into the priority queue, demoted
or best-effort traffic into the best-effort queue, drops into statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.clock import SimClock
from repro.hummingbird.router import HummingbirdRouter
from repro.netsim.link import Link
from repro.netsim.metrics import FlowMetrics
from repro.scion.packet import ScionPacket
from repro.scion.router import Action

_DROP, _DELIVER, _FORWARD_PRIORITY = Action.DROP, Action.DELIVER, Action.FORWARD_PRIORITY


@dataclass(slots=True)
class SimPacket:
    """A packet in flight plus simulation metadata."""

    packet: ScionPacket
    flow_id: int
    sent_at: float
    size_bytes: int


class HostSink:
    """Destination host: records per-flow metrics."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.flows: dict[int, FlowMetrics] = {}

    def flow(self, flow_id: int) -> FlowMetrics:
        metrics = self.flows.get(flow_id)
        if metrics is None:
            metrics = FlowMetrics(flow_id)
            self.flows[flow_id] = metrics
        return metrics

    def deliver(self, sim_packet: SimPacket) -> None:
        self.flow(sim_packet.flow_id).record_received(
            sim_packet.size_bytes, sim_packet.sent_at, self.clock.time
        )


class RouterNode:
    """One AS's border router inside the simulation."""

    def __init__(self, router: HummingbirdRouter) -> None:
        self.router = router
        # egress interface id -> (link, what hands a packet off the link to
        # the neighbor on its ingress interface)
        self._egress: dict[int, tuple[Link, Callable[[SimPacket], None]]] = {}
        self.local_sink: HostSink | None = None
        self.dropped = 0

    def connect(self, egress_ifid: int, link: Link, neighbor: "RouterNode", neighbor_ifid: int) -> None:
        # A partial, not a lambda: calling it enters no Python frame of its own.
        self._egress[egress_ifid] = (link, partial(neighbor.receive, neighbor_ifid))

    def attach_sink(self, sink: HostSink) -> None:
        self.local_sink = sink

    def receive(self, ingress_ifid: int, sim_packet: SimPacket) -> None:
        """Process one packet arriving on ``ingress_ifid`` (0: from inside
        the AS, a source host handing it to its border router)."""
        decision = self.router.process(sim_packet.packet, ingress_ifid)
        action = decision.action
        if action is _DROP:
            self.dropped += 1
            return
        if action is _DELIVER:
            if self.local_sink is not None:
                self.local_sink.deliver(sim_packet)
            return
        connection = self._egress.get(decision.egress_ifid)
        if connection is None:
            self.dropped += 1
            return
        link, deliver = connection
        link.send(sim_packet, sim_packet.size_bytes, action is _FORWARD_PRIORITY, deliver)
