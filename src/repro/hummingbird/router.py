"""Hummingbird border-router pipeline (Algorithms 2-4, Fig. 13).

For each packet the ingress border router of AS *i* locates the current hop
field once, reading the path's position table itself, and then, on that hop
field:

1. **Flyover processing** (Algorithm 3) if the current hop field has the F
   bit set: compute ResStart, re-derive the reservation key :math:`A_i` from
   the packet's reservation information under the held :math:`SV_i` PRF,
   check PktLen for overflow (Eq. 7d), key a PRF with :math:`A_i` (the
   paper's "AES-extend" step, done for every packet: nothing about a
   reservation outlives the packet), recompute the flyover MAC, XOR it into
   the AggMAC field — recovering the candidate SCION hop-field MAC — and run
   the freshness and reservation-active checks.  Timing failures demote the
   packet to best effort; a bad tag will surface as a hop-field MAC mismatch
   and drop the packet.
2. **Standard SCION processing** (Algorithm 4, the base router's
   ``_traverse``): hop-field expiry, MAC verification (on the candidate
   recovered above), SegID update, CurrHF advance — two hop fields at
   segment boundaries (A.5).
3. **Bandwidth monitoring** (Algorithm 1) plus optional duplicate
   suppression: overuse or replay demotes to best effort.
4. Forward with priority, forward best effort, or drop.

Step 1 leaves the plain hop-field MAC in the header (A.7), which is what
makes path reversal at the destination trivial.

A reserved hop is ten Python frames at either PRF backend: this method,
the clock, ``_traverse``, :func:`~repro.crypto.keys.derive_auth_key`,
:func:`~repro.hummingbird.mac.compute_flyover_mac`, the three PRF computes
and one keying of Table 3, and the policer's
:meth:`~repro.hummingbird.policing.TokenBucketArray.monitor`.  A plain hop
(a SCION path-type packet, or a Hummingbird one whose F bit is clear) is
four: this method, the clock, ``_traverse`` and the hop-field MAC's
compute.  Every other step is written out here;
``tests/hummingbird/test_op_counts.py`` holds the counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Clock
from repro.crypto.keys import derive_auth_key
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.hummingbird.duplicate import DuplicateFilter
from repro.hummingbird.mac import TAG_LEN, compute_flyover_mac
from repro.hummingbird.pathtype import FlyoverHopFieldData, HummingbirdPath
from repro.hummingbird.policing import KBPS_OF_CLASS, PerInterfacePolicer, PolicingVerdict
from repro.scion.packet import PATH_TYPE_HUMMINGBIRD, ScionPacket
from repro.scion.router import Action, Decision, ScionRouter
from repro.scion.topology import AutonomousSystem
from repro.wire.timestamps import CLOCK_SKEW, MAX_PACKET_AGE

POLICING_CAPACITY = 100_000  # matches the prototype's 800 kB array (§7.1)
# Read once per process, not per hop: on CPython 3.11 looking up an enum
# member costs about ten global reads.
_DROP_ACTION, _DELIVER_ACTION = Action.DROP, Action.DELIVER
_OVERUSED = PolicingVerdict.FWD_BEST_EFFORT
_from_bytes = int.from_bytes  # bound once: each ``int.from_bytes`` lookup builds a bound method


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
        duplicate_filter: DuplicateFilter | None = None,
    ) -> None:
        super().__init__(autonomous_system, clock, prf_factory)
        self._secret_value = autonomous_system.secret_value
        self._secret_value_prf = prf_factory(self._secret_value.key)
        self._forward_priority = {
            ifid: Decision(Action.FORWARD_PRIORITY, egress_ifid=ifid)
            for ifid in autonomous_system.interfaces
        }
        self.policer = PerInterfacePolicer(POLICING_CAPACITY)
        self.duplicate_filter = duplicate_filter
        self.stats = RouterStats()

    # -- Algorithm 2 ---------------------------------------------------------

    def process(self, packet: ScionPacket, ingress_ifid: int) -> Decision:
        path = packet.path
        hummingbird = packet.path_type == PATH_TYPE_HUMMINGBIRD
        if hummingbird and not isinstance(path, HummingbirdPath):
            return self._counted(Decision(Action.DROP, reason="path type 5 without meta header"))
        if path.curr_hf >= path.num_hopfields:
            return self._counted(Decision(Action.DROP, reason="path exhausted"))

        # One pass: the hop field is located once and every step runs on it.
        now = self.clock.now()
        seg_index, local = path.positions[path.curr_hf]
        segment = path.segments[seg_index]
        hop = segment.hopfields[local]
        if segment.cons_dir:
            ingress, egress = hop.cons_ingress, hop.cons_egress
        else:
            egress, ingress = hop.cons_ingress, hop.cons_egress
        if not (hummingbird and isinstance(hop, FlyoverHopFieldData)):  # no F bit set
            # A plain hop, as a best-effort flood's: counted here, not through
            # _counted, a frame on the simulator's commonest hop.
            decision = self._traverse(
                path, ingress_ifid, now, seg_index, segment, hop, ingress, egress
            )
            if decision.action is _DROP_ACTION:
                self.stats.record_drop(decision.reason)
            else:
                self.stats.best_effort_forwarded += 1
            return decision

        # Algorithm 3.  The reservation covers the whole AS crossing: at a
        # segment boundary the flyover (the AS's first hop field, A.5) shows
        # traversal egress 0, and the true egress is the next segment's.
        reserved_egress = egress
        if (
            egress == 0
            and local == len(segment.hopfields) - 1
            and seg_index + 1 < len(path.segments)
        ):
            next_segment = path.segments[seg_index + 1]
            if next_segment.hopfields:
                _, reserved_egress = next_segment.traversal_interfaces(0)
        res_start = path.base_timestamp - hop.res_start_offset
        if self.autonomous_system.secret_value is not self._secret_value:  # SV_i replaced
            self._secret_value = self.autonomous_system.secret_value
            self._secret_value_prf = self.prf_factory(self._secret_value.key)
        auth_key = derive_auth_key(
            self._secret_value_prf,
            ingress,
            reserved_egress,
            hop.res_id,
            hop.bw_cls,
            res_start,
            hop.res_duration,
        )
        pkt_len = len(packet.payload) + 4 * path.hdr_len  # PktLen, Eq. 7d
        if pkt_len >= 1 << 16:  # does not fit its two bytes: the specification drops it
            return self._counted(Decision(Action.DROP, reason="PktLen overflow"))
        flyover_mac = compute_flyover_mac(
            self.prf_factory.prf_type(auth_key),  # "AES-extend A_i": per packet, never kept
            packet.dst.isd_as,
            pkt_len,
            hop.res_start_offset,
            path.millis_timestamp,
            path.counter,
        )
        # Candidate hop-field MAC (Eq. 6); also the A.7 MAC replacement.
        hop.mac = (_from_bytes(hop.mac, "big") ^ _from_bytes(flyover_mac, "big")).to_bytes(
            TAG_LEN, "big"
        )
        reserved = False
        age = now - (path.base_timestamp + path.millis_timestamp / 1000.0)
        if not -CLOCK_SKEW <= age <= MAX_PACKET_AGE + CLOCK_SKEW:
            self.stats.demoted_stale += 1
        elif not res_start <= now <= res_start + hop.res_duration:  # no skew slack (A.7 note)
            self.stats.demoted_inactive += 1
        else:
            reserved = True

        # Algorithm 4 on the same hop field: a bad tag left a wrong candidate MAC.
        decision = self._traverse(
            path, ingress_ifid, now, seg_index, segment, hop, ingress, egress
        )
        if decision.action is _DROP_ACTION or not reserved:
            return self._counted(decision)

        # Optional duplicate suppression, then Algorithm 1.
        if self.duplicate_filter is not None and self.duplicate_filter.is_duplicate(
            ingress, hop.res_id, path.base_timestamp, path.millis_timestamp, path.counter, now
        ):
            self.stats.demoted_duplicate += 1
            return self._counted(decision)
        # Algorithm 1 on the ingress's array; derive_auth_key refused a class
        # outside ten bits.
        array = self.policer.arrays.get(ingress)
        if array is None:
            array = self.policer.array_for(ingress)
        verdict = array.monitor(hop.res_id, KBPS_OF_CLASS[hop.bw_cls], pkt_len, now, res_start)
        if verdict is _OVERUSED:
            self.stats.demoted_overuse += 1
            return self._counted(decision)

        # Within its reservation: prioritized, also on the terminal hop, where
        # nothing is forwarded but the crossing consumed reservation bandwidth.
        self.stats.flyover_forwarded += 1
        if decision.action is _DELIVER_ACTION:
            return decision
        egress = decision.egress_ifid
        return self._forward_priority.get(egress) or Decision(
            Action.FORWARD_PRIORITY, egress_ifid=egress
        )

    # -- bookkeeping -----------------------------------------------------------

    def _counted(self, decision: Decision) -> Decision:
        """Count a decision that used no reservation bandwidth."""
        if decision.action is _DROP_ACTION:
            self.stats.record_drop(decision.reason)
        else:
            self.stats.best_effort_forwarded += 1
        return decision
