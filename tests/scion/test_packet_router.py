"""SCION packets (wire round-trips) and the baseline border router."""

import pytest

from tests.conftest import BLAKE2, T0, addresses, replace_hop, walk_path

from repro.clock import SimClock
from repro.hummingbird.source import ScionBestEffortSource
from repro.scion.packet import (
    PATH_TYPE_SCION,
    PacketPath,
    ScionPacket,
    decode_packet,
    encode_packet,
)
from repro.scion.router import Action, ScionRouter


def build_packet(path, payload=b"data"):
    src, dst = addresses(path)
    return ScionBestEffortSource(src, dst, path).build_packet(payload)


class TestWireFormat:
    def test_roundtrip(self, chain3):
        _, path = chain3
        packet = build_packet(path, b"hello world")
        wire = encode_packet(packet)
        decoded = decode_packet(wire)
        assert decoded.payload == b"hello world"
        assert decoded.src == packet.src and decoded.dst == packet.dst
        assert decoded.path_type == PATH_TYPE_SCION
        assert decoded.path.curr_hf == 0
        assert len(decoded.path.segments) == len(packet.path.segments)
        for a, b in zip(decoded.path.segments, packet.path.segments):
            assert a.cons_dir == b.cons_dir
            assert a.timestamp == b.timestamp
            assert [h.mac for h in a.hopfields] == [h.mac for h in b.hopfields]

    def test_hdr_len_is_4_byte_aligned(self, chain5):
        _, path = chain5
        packet = build_packet(path)
        assert packet.header_bytes() % 4 == 0
        assert packet.packet_length() == len(encode_packet(packet))

    def test_cursor_state_survives_roundtrip(self, chain3):
        _, path = chain3
        packet = build_packet(path)
        packet.path.curr_hf = 1
        packet.path.segids[0] ^= 0xBEEF
        decoded = decode_packet(encode_packet(packet))
        assert decoded.path.curr_hf == 1
        assert decoded.path.segids[0] == packet.path.segids[0]

    def test_truncated_packet_rejected(self, chain3):
        _, path = chain3
        wire = encode_packet(build_packet(path))
        with pytest.raises(ValueError):
            decode_packet(wire[:20])

    def test_payload_length_mismatch_rejected(self, chain3):
        _, path = chain3
        wire = bytearray(encode_packet(build_packet(path, b"xxxx")))
        with pytest.raises(ValueError):
            decode_packet(bytes(wire[:-1]))


class TestBaselineRouter:
    def test_full_traversal(self, chain5, clock):
        topology, path = chain5
        routers = {
            a.isd_as: ScionRouter(a, clock, BLAKE2) for a in topology.ases
        }
        packet = build_packet(path)
        decisions = walk_path(topology, routers, packet, path.src)
        assert decisions[-1].action is Action.DELIVER
        assert all(d.action is Action.FORWARD for d in decisions[:-1])

    def test_tampered_mac_dropped(self, chain3, clock):
        topology, path = chain3
        routers = {a.isd_as: ScionRouter(a, clock, BLAKE2) for a in topology.ases}
        packet = build_packet(path)
        hop = packet.path.segments[0].hopfields[1]
        replace_hop(packet.path, 0, 1, mac=bytes(b ^ 0x01 for b in hop.mac))
        decisions = walk_path(topology, routers, packet, path.src)
        assert decisions[-1].action is Action.DROP
        assert "MAC" in decisions[-1].reason

    def test_tampered_interface_dropped(self, chain3, clock):
        topology, path = chain3
        routers = {a.isd_as: ScionRouter(a, clock, BLAKE2) for a in topology.ases}
        packet = build_packet(path)
        replace_hop(packet.path, 0, 0, cons_egress=9)
        first = routers[path.src].process(packet, 0)
        assert first.action is Action.DROP

    def test_expired_hopfield_dropped(self, chain3):
        topology, path = chain3
        late = SimClock(float(T0 + 10 * 24 * 3600))  # 10 days later
        routers = {a.isd_as: ScionRouter(a, late, BLAKE2) for a in topology.ases}
        packet = build_packet(path)
        decision = routers[path.src].process(packet, 0)
        assert decision.action is Action.DROP
        assert "expired" in decision.reason

    def test_a_hop_field_lasts_exp_time_plus_one_units(self, chain3):
        """ExpTime v lasts (v + 1) * 24 h / 256 past its segment's timestamp:
        the 63 beaconing writes is six hours, to the millisecond."""
        topology, path = chain3
        assert {hop.exp_time for s in path.segments for hop in s.hopfields} == {63}
        expiry = T0 + 6 * 3600
        for now, action in ((expiry, Action.FORWARD), (expiry + 0.001, Action.DROP)):
            router = ScionRouter(topology.as_of(path.src), SimClock(float(now)), BLAKE2)
            assert router.process(build_packet(path), 0).action is action

    def test_wrong_ingress_interface_dropped(self, chain3, clock):
        topology, path = chain3
        routers = {a.isd_as: ScionRouter(a, clock, BLAKE2) for a in topology.ases}
        packet = build_packet(path)
        # Process the first hop correctly, then feed the second router a
        # wrong ingress interface id.
        first = routers[path.src].process(packet, 0)
        assert first.forwarded
        interface = topology.as_of(path.src).interfaces[first.egress_ifid]
        wrong_ingress = interface.neighbor_ifid + 7
        second = routers[interface.neighbor].process(packet, wrong_ingress)
        assert second.action is Action.DROP

    def test_exhausted_path_dropped(self, chain3, clock):
        topology, path = chain3
        routers = {a.isd_as: ScionRouter(a, clock, BLAKE2) for a in topology.ases}
        packet = build_packet(path)
        walk_path(topology, routers, packet, path.src)
        decision = routers[path.dst].process(packet, 0)
        assert decision.action is Action.DROP

    def test_replayed_segment_boundary_path(self, clock):
        """A 3-segment path (up+core+down) traverses both boundary ASes."""
        from repro.netsim.scenarios import SIM_PRF
        from repro.scion.beaconing import run_beaconing
        from repro.scion.paths import PathLookup
        from repro.scion.topology import core_mesh_topology

        topology = core_mesh_topology(2, 1)
        store = run_beaconing(topology, timestamp=T0, prf_factory=SIM_PRF)
        leaves = [a.isd_as for a in topology.ases if not a.is_core]
        path = PathLookup(store).find_paths(leaves[0], leaves[1])[0]
        routers = {a.isd_as: ScionRouter(a, clock, SIM_PRF) for a in topology.ases}
        packet = build_packet(path)
        decisions = walk_path(topology, routers, packet, path.src)
        assert decisions[-1].action is Action.DELIVER
        assert len(decisions) == 4  # 4 ASes despite 6 hop fields
