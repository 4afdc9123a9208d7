"""Hummingbird gateway: multiplexing hosts over shared reservations (§5.4).

The paper removes the *requirement* for AS-level gateways (hosts hold their
own keys), but notes the gateway's aggregation function "is still
beneficial, and our system readily supports the implementation of gateways
to this end": a corporate LAN or ISP buys one large inter-domain
reservation and multiplexes many internal hosts over it.

:class:`HummingbirdGateway` does exactly that: it owns the reservations and
the path, admits intra-AS flows with per-flow rate limits (so the aggregate
can never exceed the purchased bandwidth — the on-path policers must never
demote gateway traffic), and stamps outgoing packets with the shared
flyover MACs.  Hosts behind the gateway never see the authentication keys,
mirroring the Colibri/Helia deployment model when an operator prefers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Clock
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.hummingbird.policing import TokenBucketArray, PolicingVerdict
from repro.hummingbird.reservation import FlyoverReservation
from repro.hummingbird.source import HummingbirdSource
from repro.scion.addresses import ScionAddr
from repro.scion.packet import ScionPacket
from repro.scion.paths import ForwardingPath

MAX_FLOWS = 1024  # local flows one gateway polices, one bucket each


class AdmissionError(RuntimeError):
    """The gateway cannot admit the flow without risking overuse."""


@dataclass
class GatewayFlow:
    """One admitted intra-AS flow with its committed rate."""

    flow_id: int
    host: ScionAddr
    rate_kbps: int
    sent_packets: int = 0
    demoted_packets: int = 0


@dataclass
class GatewayStats:
    admitted_flows: int = 0
    rejected_flows: int = 0
    sent_packets: int = 0
    locally_demoted: int = 0


class HummingbirdGateway:
    """Aggregates many local flows onto one set of flyover reservations.

    Admission control is bandwidth-based: the sum of admitted flow rates
    can never exceed the reservation bandwidth.  A local token bucket per
    flow (same Algorithm 1 machinery the border routers use, with the same
    BurstTime) enforces the committed rates *before* packets leave, so the
    aggregate presented to the on-path policers is always conformant —
    gateway traffic is never demoted in the network.
    """

    def __init__(
        self,
        gateway_addr: ScionAddr,
        dst: ScionAddr,
        path: ForwardingPath,
        reservations: list[FlyoverReservation],
        clock: Clock,
        prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
    ) -> None:
        if not reservations:
            raise ValueError("a gateway needs at least one reservation")
        self.clock = clock
        self.source = HummingbirdSource(
            gateway_addr, dst, path, reservations, clock, prf_factory
        )
        # The usable aggregate is the smallest reservation on the path.
        self.aggregate_kbps = min(
            r.resinfo.bandwidth_kbps for r in reservations
        )
        self._committed_kbps = 0
        self._flows: dict[int, GatewayFlow] = {}
        self._buckets = TokenBucketArray(capacity=MAX_FLOWS)
        self._next_flow_id = 0
        self.stats = GatewayStats()

    # -- admission -------------------------------------------------------------

    @property
    def available_kbps(self) -> int:
        return self.aggregate_kbps - self._committed_kbps

    def admit(self, host: ScionAddr, rate_kbps: int) -> GatewayFlow:
        """Admit a local flow, reserving ``rate_kbps`` of the aggregate."""
        if rate_kbps <= 0:
            raise ValueError("flow rate must be positive")
        if rate_kbps > self.available_kbps:
            self.stats.rejected_flows += 1
            raise AdmissionError(
                f"flow wants {rate_kbps} kbps but only "
                f"{self.available_kbps} kbps of the reservation is free"
            )
        if self._next_flow_id >= self._buckets.capacity:
            self.stats.rejected_flows += 1
            raise AdmissionError("gateway flow table full")
        flow = GatewayFlow(
            flow_id=self._next_flow_id, host=host, rate_kbps=rate_kbps
        )
        self._next_flow_id += 1
        self._flows[flow.flow_id] = flow
        self._committed_kbps += rate_kbps
        self.stats.admitted_flows += 1
        return flow

    def release(self, flow_id: int) -> None:
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            self._committed_kbps -= flow.rate_kbps
            self._buckets.reset(flow_id)

    # -- forwarding ---------------------------------------------------------------

    def send(self, flow_id: int, payload: bytes) -> ScionPacket | None:
        """Build an authenticated packet for a local flow's payload.

        Returns ``None`` when the flow exceeds its committed rate — the
        gateway drops to best effort *locally* (the caller may send the
        payload unprotected) instead of letting the network policers see
        non-conformant reservation traffic.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"unknown flow {flow_id}")
        packet = self.source.build_packet(payload, flow_id=flow_id + 1)
        verdict = self._buckets.monitor(
            flow_id, flow.rate_kbps, packet.packet_length(), self.clock.now()
        )
        flow.sent_packets += 1
        if verdict is PolicingVerdict.FWD_BEST_EFFORT:
            flow.demoted_packets += 1
            self.stats.locally_demoted += 1
            return None
        self.stats.sent_packets += 1
        return packet

    def flows(self) -> list[GatewayFlow]:
        return list(self._flows.values())
