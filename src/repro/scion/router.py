"""Baseline SCION border router: standard hop-field processing (Algorithm 4).

This is the best-effort data plane Hummingbird extends and the baseline of
the paper's throughput evaluation (dashed lines in Figs. 5/14/15).  The
router is stateless across packets: every check uses only the packet and the
AS-local forwarding key, whose PRF (for AES, the expanded key schedule) the
router keys once and holds.

Processing one packet at the ingress border router of AS *i*:

1. locate the current hop field via ``CurrHF`` (once: the located hop is
   handed to every later step);
2. drop if the hop field is expired;
3. verify the chained hop-field MAC (SegID handling depends on the
   construction-direction flag);
4. update the SegID accumulator;
5. advance ``CurrHF`` (twice at segment boundaries, Appendix A.5);
6. forward out the traversal egress interface, or deliver locally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.clock import Clock
from repro.crypto.prf import DEFAULT_PRF_FACTORY, Prf, PrfFactory
from repro.scion.hopfields import absolute_expiry, chain_segid, compute_hopfield_mac
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

    @property
    def forwarded(self) -> bool:
        return self.action in (Action.FORWARD, Action.FORWARD_PRIORITY)


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
        if path.at_end():
            return Decision(Action.DROP, reason="path exhausted")
        seg_index, local, segment, hop = path.current()
        if seg_index != path.curr_inf:
            return Decision(Action.DROP, reason="CurrINF does not match CurrHF")
        expected_ingress, egress = segment.traversal_interfaces(local)
        if ingress_ifid != 0 and expected_ingress != ingress_ifid:
            return Decision(
                Action.DROP,
                reason=f"ingress interface {ingress_ifid} != hop field {expected_ingress}",
            )
        decision = self._process_hopfield(path, seg_index, segment, hop)
        if decision is not None:
            return decision

        # Segment boundary: traversal egress 0 but more segments follow means
        # this AS owns the first hop field of the next segment too (A.5).
        if egress == 0 and not path.at_end():
            next_seg_index, local, segment, hop = path.current()
            if next_seg_index != seg_index + 1:
                return Decision(Action.DROP, reason="CurrHF/SegLen mismatch at boundary")
            path.curr_inf = next_seg_index
            decision = self._process_hopfield(path, next_seg_index, segment, hop)
            if decision is not None:
                return decision
            _, egress = segment.traversal_interfaces(local)

        if egress == 0:
            if not path.at_end():
                return Decision(Action.DROP, reason="egress 0 before end of path")
            return _DELIVER
        return self._forward.get(egress) or Decision(Action.FORWARD, egress_ifid=egress)

    # -- internals ----------------------------------------------------------

    def _held_forwarding_key_prf(self) -> Prf:
        """The PRF keyed with :math:`K_i`; re-keyed if the AS replaced its key."""
        key = self.autonomous_system.forwarding_key
        if key is not self._forwarding_key:
            self._forwarding_key = key
            self._forwarding_key_prf = self.prf_factory(key)
        return self._forwarding_key_prf

    def _process_hopfield(
        self, path: PacketPath, seg_index: int, segment: SegmentInPath, hop: HopFieldData
    ) -> Decision | None:
        """Verify the located current hop field and advance; None means success."""
        if absolute_expiry(segment.timestamp, hop.exp_time) < self.clock.now():
            return Decision(Action.DROP, reason="hop field expired")

        if not self.verify_and_update_segid(path, seg_index, segment, hop):
            return Decision(Action.DROP, reason="hop-field MAC verification failed")

        path.curr_hf += 1
        return None

    def verify_and_update_segid(
        self, path: PacketPath, seg_index: int, segment: SegmentInPath, hop: HopFieldData
    ) -> bool:
        """MAC check with direction-dependent SegID chaining.

        In construction direction the SegID already holds :math:`\\beta_i`;
        against construction the router first XORs the packet's MAC bytes to
        recover the candidate :math:`\\beta_i` (a forged MAC produces a wrong
        candidate, so verification fails).
        """
        segid = path.segids[seg_index]
        if segment.cons_dir:
            beta = segid
        else:
            beta = chain_segid(segid, hop.mac)
        expected = compute_hopfield_mac(
            self._held_forwarding_key_prf(),
            beta,
            segment.timestamp,
            hop.exp_time,
            hop.cons_ingress,
            hop.cons_egress,
        )
        if expected != hop.mac:
            return False
        if segment.cons_dir:
            path.segids[seg_index] = chain_segid(segid, expected)
        else:
            path.segids[seg_index] = beta
        return True
