"""Baseline SCION border router: standard hop-field processing (Algorithm 4).

This is the best-effort data plane Hummingbird extends and the baseline of
the paper's throughput evaluation (dashed lines in Figs. 5/14/15).  The
router is stateless across packets: every check uses only the packet and the
AS-local forwarding key, whose PRF (for AES, the expanded key schedule) the
router keys once and holds.

Processing one packet at the ingress border router of AS *i*:

1. locate the current hop field via ``CurrHF`` (once, reading the path's
   position table: the located hop is handed to every later step, and
   :class:`HummingbirdRouter` runs its flyover step on the same hop before
   this shared one);
2. drop if the hop field is expired;
3. verify the chained hop-field MAC (SegID handling depends on the
   construction-direction flag);
4. update the SegID accumulator;
5. advance ``CurrHF`` (twice at segment boundaries, Appendix A.5);
6. forward out the traversal egress interface, or deliver locally.

A hop is four Python frames: ``process``, the clock, ``_traverse`` and the
hop-field MAC's PRF compute; ``tests/hummingbird/test_op_counts.py`` holds
the count.
"""

from __future__ import annotations

import enum
import hmac
import struct
from dataclasses import dataclass, field

from repro.clock import Clock
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.scion.hopfields import (
    EXP_TIME_UNIT,
    HOP_MAC_LEN,
    HOPFIELD_MAC_INPUT,
    pack_hopfield_mac_input,
)
from repro.scion.packet import PacketPath, ScionPacket
from repro.scion.paths import HopFieldData, SegmentInPath
from repro.scion.topology import AutonomousSystem


class Action(enum.Enum):
    FORWARD = "forward"  # send out an egress interface, best effort
    FORWARD_PRIORITY = "forward_priority"  # Hummingbird: reserved bandwidth
    DELIVER = "deliver"  # destination AS reached
    DROP = "drop"


@dataclass(frozen=True)
class Decision:
    """The router's verdict for one packet."""

    action: Action
    egress_ifid: int = 0
    reason: str = ""
    # Stored once, not a property: whoever hands a packet on reads it per hop.
    forwarded: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "forwarded", self.action in _FORWARDING)


_FORWARDING = (Action.FORWARD, Action.FORWARD_PRIORITY)  # read once: enum lookups are slow
_DELIVER = Decision(Action.DELIVER)


class ScionRouter:
    """Best-effort border router for one AS."""

    def __init__(
        self,
        autonomous_system: AutonomousSystem,
        clock: Clock,
        prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
    ) -> None:
        self.autonomous_system = autonomous_system
        self.clock = clock
        self.prf_factory = prf_factory
        self._forwarding_key = autonomous_system.forwarding_key
        self._forwarding_key_prf = prf_factory(self._forwarding_key)
        # A verdict is immutable and there is one per egress interface: built
        # here, so forwarding a packet allocates none (and nothing grows later).
        self._forward = {
            ifid: Decision(Action.FORWARD, egress_ifid=ifid)
            for ifid in autonomous_system.interfaces
        }

    # -- public API ---------------------------------------------------------

    def process(self, packet: ScionPacket, ingress_ifid: int) -> Decision:
        """Validate and route one packet arriving on ``ingress_ifid``.

        ``ingress_ifid`` is 0 when the packet comes from inside the AS (the
        source host handing the packet to its first border router).
        """
        path = packet.path
        if path.curr_hf >= path.num_hopfields:
            return Decision(Action.DROP, reason="path exhausted")
        seg_index, local = path.positions[path.curr_hf]
        segment = path.segments[seg_index]
        hop = segment.hopfields[local]
        if segment.cons_dir:
            ingress, egress = hop.cons_ingress, hop.cons_egress
        else:
            egress, ingress = hop.cons_ingress, hop.cons_egress
        return self._traverse(
            path, ingress_ifid, self.clock.now(), seg_index, segment, hop, ingress, egress
        )

    # -- Algorithm 4 ----------------------------------------------------------

    def _traverse(
        self,
        path: PacketPath,
        ingress_ifid: int,
        now: float,
        seg_index: int,
        segment: SegmentInPath,
        hop: HopFieldData,
        expected_ingress: int,
        egress: int,
    ) -> Decision:
        """Algorithm 4 on the located current hop field and its traversal
        interfaces; both routers run it once per packet and hop.

        A hop field is checked for expiry, then its MAC with direction-dependent
        SegID chaining: in construction direction the SegID already holds
        :math:`\\beta_i`; against construction the router first XORs the
        packet's MAC bytes to recover the candidate :math:`\\beta_i` (a forged
        MAC produces a wrong candidate, so verification fails).
        """
        if seg_index != path.curr_inf:
            return Decision(Action.DROP, reason="CurrINF does not match CurrHF")
        if ingress_ifid != 0 and expected_ingress != ingress_ifid:
            return Decision(
                Action.DROP,
                reason=f"ingress interface {ingress_ifid} != hop field {expected_ingress}",
            )
        if self.autonomous_system.forwarding_key is not self._forwarding_key:  # K_i replaced
            self._forwarding_key = self.autonomous_system.forwarding_key
            self._forwarding_key_prf = self.prf_factory(self._forwarding_key)
        forwarding_key_prf = self._forwarding_key_prf
        # Expiry, the MAC input and SegID chaining are written out here, not
        # called (beaconing calls compute_hopfield_mac and chain_segid): a
        # call costs more than each of them.
        for boundary in (False, True):
            timestamp, exp_time, mac = segment.timestamp, hop.exp_time, hop.mac
            if timestamp + (exp_time + 1) * EXP_TIME_UNIT < now:
                return Decision(Action.DROP, reason="hop field expired")
            segid = path.segids[seg_index]
            beta = segid if segment.cons_dir else segid ^ (mac[0] << 8 | mac[1])
            try:
                block = HOPFIELD_MAC_INPUT.pack(
                    beta, timestamp, exp_time, hop.cons_ingress, hop.cons_egress
                )
            except struct.error:  # raises the error that names the field
                block = pack_hopfield_mac_input(
                    beta, timestamp, exp_time, hop.cons_ingress, hop.cons_egress
                )
            expected = forwarding_key_prf.compute(block)[:HOP_MAC_LEN]
            if not hmac.compare_digest(expected, mac):
                return Decision(Action.DROP, reason="hop-field MAC verification failed")
            path.segids[seg_index] = (
                segid ^ (expected[0] << 8 | expected[1]) if segment.cons_dir else beta
            )
            path.curr_hf += 1

            # Segment boundary: traversal egress 0 but more segments follow means
            # this AS owns the first hop field of the next segment too (A.5).
            if boundary or egress != 0 or path.curr_hf >= path.num_hopfields:
                break
            next_seg_index, local = path.positions[path.curr_hf]
            if next_seg_index != seg_index + 1:
                return Decision(Action.DROP, reason="CurrHF/SegLen mismatch at boundary")
            path.curr_inf = seg_index = next_seg_index
            segment = path.segments[seg_index]
            hop = segment.hopfields[local]
            egress = hop.cons_egress if segment.cons_dir else hop.cons_ingress

        if egress == 0:
            if path.curr_hf < path.num_hopfields:
                return Decision(Action.DROP, reason="egress 0 before end of path")
            return _DELIVER
        return self._forward.get(egress) or Decision(Action.FORWARD, egress_ifid=egress)
