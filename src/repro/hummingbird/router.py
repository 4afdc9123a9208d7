"""Hummingbird border-router pipeline (Algorithms 2-4, Fig. 13).

For each packet the ingress border router of AS *i*:

1. **Flyover processing** (Algorithm 3) if the current hop field has the F
   bit set: re-derive the reservation key :math:`A_i` from the packet's
   reservation information under the held :math:`SV_i` PRF, key a PRF with
   it (the paper's "AES-extend" step, done for every packet: nothing about a
   reservation outlives the packet), recompute the
   flyover MAC, XOR it into the AggMAC field — recovering the candidate
   SCION hop-field MAC — and run the freshness and reservation-active
   checks.  Timing failures demote the packet to best effort; a bad tag
   will surface as a hop-field MAC mismatch and drop the packet.
2. **Standard SCION processing** (Algorithm 4): hop-field expiry, MAC
   verification (on the candidate recovered above), SegID update, CurrHF
   advance — two hop fields at segment boundaries (A.5).
3. **Bandwidth monitoring** (Algorithm 1) plus optional duplicate
   suppression: overuse or replay demotes to best effort.
4. Forward with priority, forward best effort, or drop.

Step 1 leaves the plain hop-field MAC in the header (A.7), which is what
makes path reversal at the destination trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Clock
from repro.crypto.keys import derive_auth_key
from repro.crypto.prf import DEFAULT_PRF_FACTORY, Prf, PrfFactory
from repro.hummingbird.duplicate import DuplicateFilter
from repro.hummingbird.mac import aggregate_mac, checked_pkt_len, compute_flyover_mac
from repro.hummingbird.pathtype import FlyoverHopFieldData, HummingbirdPath, is_flyover
from repro.hummingbird.policing import PerInterfacePolicer, PolicingVerdict
from repro.scion.packet import PATH_TYPE_HUMMINGBIRD, ScionPacket
from repro.scion.router import Action, Decision, ScionRouter
from repro.scion.topology import AutonomousSystem
from repro.wire.timestamps import CLOCK_SKEW, MAX_PACKET_AGE

DEFAULT_POLICING_CAPACITY = 100_000  # matches the prototype's 800 kB array (§7.1)


@dataclass
class RouterStats:
    """Per-router counters, used by tests and the QoS experiments."""

    flyover_forwarded: int = 0
    best_effort_forwarded: int = 0
    dropped: int = 0
    demoted_stale: int = 0
    demoted_inactive: int = 0
    demoted_overuse: int = 0
    demoted_duplicate: int = 0
    drop_reasons: dict = field(default_factory=dict)

    def record_drop(self, reason: str) -> None:
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1


class HummingbirdRouter(ScionRouter):
    """Border router with flyover authentication, policing and prioritization."""

    def __init__(
        self,
        autonomous_system: AutonomousSystem,
        clock: Clock,
        prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
        policing_capacity: int = DEFAULT_POLICING_CAPACITY,
        duplicate_filter: DuplicateFilter | None = None,
    ) -> None:
        super().__init__(autonomous_system, clock, prf_factory)
        self._secret_value = autonomous_system.secret_value
        self._secret_value_prf = prf_factory(self._secret_value.key)
        self._forward_priority = {
            ifid: Decision(Action.FORWARD_PRIORITY, egress_ifid=ifid)
            for ifid in autonomous_system.interfaces
        }
        self.policer = PerInterfacePolicer(policing_capacity)
        self.duplicate_filter = duplicate_filter
        self.stats = RouterStats()

    # -- Algorithm 2 ---------------------------------------------------------

    def process(self, packet: ScionPacket, ingress_ifid: int) -> Decision:
        if packet.path_type != PATH_TYPE_HUMMINGBIRD:
            decision = super().process(packet, ingress_ifid)
            self._count(decision)
            return decision
        path = packet.path
        if not isinstance(path, HummingbirdPath):
            decision = Decision(Action.DROP, reason="path type 5 without meta header")
            self._count(decision)
            return decision
        if path.at_end():
            decision = Decision(Action.DROP, reason="path exhausted")
            self._count(decision)
            return decision

        seg_index, local, _, hop = path.current()
        flyover_verdict = PolicingVerdict.FWD_BEST_EFFORT
        flyover_hop: FlyoverHopFieldData | None = None
        resinfo_ingress = 0
        pkt_len = 0
        if is_flyover(hop):
            flyover_hop = hop  # type: ignore[assignment]
            try:
                flyover_verdict, resinfo_ingress, pkt_len = self._flyover_processing(
                    packet, path, seg_index, local, flyover_hop
                )
            except OverflowError:
                decision = Decision(Action.DROP, reason="PktLen overflow")
                self._count(decision)
                return decision

        # Standard SCION processing (inherited Algorithm 4, incl. boundary).
        decision = super(HummingbirdRouter, self).process(packet, ingress_ifid)
        if decision.action is Action.DROP:
            self._count(decision)
            return decision

        if flyover_hop is not None and flyover_verdict is PolicingVerdict.FWD_FLYOVER:
            flyover_verdict = self._monitor(
                flyover_hop, resinfo_ingress, pkt_len, path
            )

        if flyover_hop is not None and flyover_verdict is PolicingVerdict.FWD_FLYOVER:
            if decision.action is Action.FORWARD:
                egress = decision.egress_ifid
                decision = self._forward_priority.get(egress) or Decision(
                    Action.FORWARD_PRIORITY, egress_ifid=egress
                )
            elif decision.action is Action.DELIVER:
                # Terminal hop: nothing to forward, but the crossing consumed
                # reservation bandwidth — count it as prioritized.
                self.stats.flyover_forwarded += 1
                self.stats.best_effort_forwarded -= 1
        self._count(decision)
        return decision

    # -- Algorithm 3 ---------------------------------------------------------

    def _flyover_processing(
        self,
        packet: ScionPacket,
        path: HummingbirdPath,
        seg_index: int,
        local: int,
        hop: FlyoverHopFieldData,
    ) -> tuple[PolicingVerdict, int, int]:
        """Recover the candidate hop-field MAC and run the timing checks.

        Returns (verdict, reservation ingress interface, PktLen).  Mutates
        the hop field's MAC: AggMAC -> candidate HopFieldMAC (A.7).
        """
        res_start = path.base_timestamp - hop.res_start_offset
        ingress, egress = self._effective_interfaces(path, seg_index, local)
        auth_key = derive_auth_key(
            self._held_secret_value_prf(),
            ingress,
            egress,
            hop.res_id,
            hop.bw_cls,
            res_start,
            hop.res_duration,
        )
        pkt_len = checked_pkt_len(len(packet.payload), packet.hdr_len_units())
        flyover_mac = compute_flyover_mac(
            self.prf_factory(auth_key),  # "AES-extend A_i": per packet, never kept
            packet.dst.isd_as,
            pkt_len,
            hop.res_start_offset,
            path.millis_timestamp,
            path.counter,
        )
        # Candidate hop-field MAC (Eq. 6); also the A.7 MAC replacement.
        hop.mac = aggregate_mac(hop.mac, flyover_mac)

        now = self.clock.now()
        abs_ts = path.base_timestamp + path.millis_timestamp / 1000.0
        age = now - abs_ts
        if not -CLOCK_SKEW <= age <= MAX_PACKET_AGE + CLOCK_SKEW:
            self.stats.demoted_stale += 1
            return PolicingVerdict.FWD_BEST_EFFORT, ingress, pkt_len
        res_expiry = res_start + hop.res_duration
        if not res_start <= now <= res_expiry:  # no skew slack here (A.7 note)
            self.stats.demoted_inactive += 1
            return PolicingVerdict.FWD_BEST_EFFORT, ingress, pkt_len
        return PolicingVerdict.FWD_FLYOVER, ingress, pkt_len

    def _held_secret_value_prf(self) -> Prf:
        """The PRF keyed with :math:`SV_i`; re-keyed if the AS replaced its secret."""
        secret_value = self.autonomous_system.secret_value
        if secret_value is not self._secret_value:
            self._secret_value = secret_value
            self._secret_value_prf = self.prf_factory(secret_value.key)
        return self._secret_value_prf

    def _effective_interfaces(
        self, path: HummingbirdPath, seg_index: int, local: int
    ) -> tuple[int, int]:
        """Traffic-direction (In, Eg) of the reservation, spanning boundaries.

        The reservation covers the whole AS crossing; at a segment boundary
        the flyover hop field (first of the AS's two hop fields, A.5) shows
        traversal egress 0 and the true egress lives in the next segment's
        first hop field.
        """
        segment = path.segments[seg_index]
        ingress, egress = segment.traversal_interfaces(local)
        if (
            egress == 0
            and local == len(segment.hopfields) - 1
            and seg_index + 1 < len(path.segments)
        ):
            next_segment = path.segments[seg_index + 1]
            if next_segment.hopfields:
                _, egress = next_segment.traversal_interfaces(0)
        return ingress, egress

    # -- Algorithm 1 + optional duplicate suppression -------------------------

    def _monitor(
        self,
        hop: FlyoverHopFieldData,
        ingress: int,
        pkt_len: int,
        path: HummingbirdPath,
    ) -> PolicingVerdict:
        now = self.clock.now()
        if self.duplicate_filter is not None and self.duplicate_filter.is_duplicate(
            hop.res_id, path.base_timestamp, path.millis_timestamp, path.counter, now
        ):
            self.stats.demoted_duplicate += 1
            return PolicingVerdict.FWD_BEST_EFFORT
        verdict = self.policer.monitor(ingress, hop.res_id, hop.bw_cls, pkt_len, now)
        if verdict is PolicingVerdict.FWD_BEST_EFFORT:
            self.stats.demoted_overuse += 1
        return verdict

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, decision: Decision) -> None:
        if decision.action is Action.FORWARD_PRIORITY:
            self.stats.flyover_forwarded += 1
        elif decision.action in (Action.FORWARD, Action.DELIVER):
            self.stats.best_effort_forwarded += 1
        else:
            self.stats.record_drop(decision.reason)
