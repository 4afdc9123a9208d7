"""Source generation and the Hummingbird border-router pipeline."""

import pytest

from tests.conftest import BLAKE2, T0, addresses, flyover_count, grant_full_path, walk_path

from repro.clock import SimClock
from repro.hummingbird.duplicate import DuplicateFilter
from repro.hummingbird.pathtype import is_flyover
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import (
    HummingbirdSource,
    ReservationMismatch,
    match_reservations,
)
from repro.scion.router import Action
from repro.scion.paths import as_crossings
from repro.wire import bwcls


def routers_for(topology, clock):
    return {a.isd_as: HummingbirdRouter(a, clock, BLAKE2) for a in topology.ases}


class TestSource:
    def test_full_path_placements(self, chain3, clock):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x" * 100)
        flyovers = [
            h for s in packet.path.segments for h in s.hopfields if is_flyover(h)
        ]
        assert len(flyovers) == 3

    def test_partial_path(self, chain5, clock):
        topology, path = chain5
        reservations = grant_full_path(topology, path, start=T0 - 5)[1:3]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x")
        flyovers = sum(
            1 for s in packet.path.segments for h in s.hopfields if is_flyover(h)
        )
        assert flyovers == 2

    def test_mismatched_reservation_rejected(self, chain3, clock):
        topology, path = chain3
        crossing = as_crossings(path)[0]
        wrong = grant_reservation(
            crossing.isd_as,
            topology.as_of(crossing.isd_as).secret_value,
            ResInfo(
                ingress=crossing.ingress + 5,
                egress=crossing.egress,
                res_id=0,
                bw_cls=1,
                start=T0,
                duration=60,
            ),
            BLAKE2,
        )
        with pytest.raises(ReservationMismatch):
            match_reservations(path, [wrong])

    def test_duplicate_reservation_for_same_crossing_rejected(self, chain3):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        with pytest.raises(ReservationMismatch):
            match_reservations(path, [reservations[0], reservations[0]])

    def test_future_reservation_rejected_at_source(self, chain3, clock):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 + 999)
        src, dst = addresses(path)
        with pytest.raises(ValueError):
            HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)

    def test_too_old_reservation_rejected_at_source(self, chain3):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0)
        late = SimClock(float(T0 + (1 << 16) + 10))
        src, dst = addresses(path)
        with pytest.raises(ValueError):
            HummingbirdSource(src, dst, path, reservations, late, BLAKE2)

    def test_unique_timestamps(self, chain3, clock):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        seen = set()
        for _ in range(50):
            packet = source.build_packet(b"x")
            key = (
                packet.path.base_timestamp,
                packet.path.millis_timestamp,
                packet.path.counter,
            )
            assert key not in seen
            seen.add(key)


class TestRouterPipeline:
    def test_full_priority_traversal(self, chain5, clock):
        topology, path = chain5
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        routers = routers_for(topology, clock)
        decisions = walk_path(topology, routers, source.build_packet(b"d" * 200), path.src)
        assert decisions[-1].action is Action.DELIVER
        assert all(d.action is Action.FORWARD_PRIORITY for d in decisions[:-1])
        assert all(r.stats.flyover_forwarded == 1 for r in routers.values())

    def test_partial_coverage_mixed_actions(self, chain5, clock):
        topology, path = chain5
        reservations = grant_full_path(topology, path, start=T0 - 5)[1:2]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        routers = routers_for(topology, clock)
        decisions = walk_path(topology, routers, source.build_packet(b"d"), path.src)
        actions = [d.action for d in decisions]
        assert actions.count(Action.FORWARD_PRIORITY) == 1
        assert actions[-1] is Action.DELIVER

    def test_forged_tag_dropped(self, chain3, clock):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x")
        hop = packet.path.segments[0].hopfields[0]
        hop.mac = bytes(b ^ 0xA5 for b in hop.mac)
        routers = routers_for(topology, clock)
        decision = routers[path.src].process(packet, 0)
        assert decision.action is Action.DROP

    def test_stale_packet_demoted(self, chain3, clock):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x")
        clock.advance(10.0)  # > Delta + delta
        routers = routers_for(topology, clock)
        decision = routers[path.src].process(packet, 0)
        assert decision.action is Action.FORWARD
        assert routers[path.src].stats.demoted_stale == 1

    def test_expired_reservation_demoted(self, chain3):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 50, duration=60)
        clock = SimClock(float(T0 + 11))  # fresh packet, expired reservation
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        source_clock_now = clock.now()
        packet = source.build_packet(b"x")
        late = SimClock(source_clock_now)
        late.advance(0.1)
        router = HummingbirdRouter(topology.as_of(path.src), late, BLAKE2)
        # reservation expired at T0+10; packet is fresh at T0+11.1
        decision = router.process(packet, 0)
        assert decision.action is Action.FORWARD
        assert router.stats.demoted_inactive == 1

    def test_overuse_demoted_not_dropped(self, chain3, clock):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=100)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = HummingbirdRouter(topology.as_of(path.src), clock, BLAKE2)
        # Wire size must stay below BurstTime * BW = 625 B (§4.4), so the
        # first packet is admitted and sustained sending demotes the rest.
        actions = [router.process(source.build_packet(b"y" * 300), 0).action for _ in range(20)]
        assert Action.FORWARD in actions  # demoted
        assert Action.FORWARD_PRIORITY in actions  # burst admitted
        assert Action.DROP not in actions
        assert router.stats.demoted_overuse > 0

    def test_duplicate_suppression_optional(self, chain3, clock):
        from copy import deepcopy

        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = HummingbirdRouter(
            topology.as_of(path.src), clock, BLAKE2, duplicate_filter=DuplicateFilter()
        )
        packet = source.build_packet(b"x")
        replay = deepcopy(packet)
        assert router.process(packet, 0).action is Action.FORWARD_PRIORITY
        assert router.process(replay, 0).action is Action.FORWARD
        assert router.stats.demoted_duplicate == 1

    def test_duplicate_filter_keys_the_ingress_like_the_policer(self, chain3, clock):
        """ResIDs are unique per ingress interface only: two opposite flows
        sent at one instant share ResID 1 at the middle AS, and neither is a
        replay of the other."""
        from repro.scion.beaconing import run_beaconing
        from repro.scion.paths import PathLookup

        topology, up = chain3
        store = run_beaconing(topology, timestamp=T0, prf_factory=BLAKE2)
        down = PathLookup(store).find_paths(up.dst, up.src)[0]
        middle = topology.ases[1]
        router = HummingbirdRouter(middle, clock, BLAKE2, duplicate_filter=DuplicateFilter())
        ingresses = []
        for path in (up, down):
            src, dst = addresses(path)
            reservations = grant_full_path(topology, path, start=T0 - 5, res_id_base=0)
            source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
            packet = source.build_packet(b"x")
            first = HummingbirdRouter(topology.as_of(path.src), clock, BLAKE2)
            egress = first.process(packet, 0).egress_ifid
            interface = topology.as_of(path.src).interfaces[egress]
            assert interface.neighbor == middle.isd_as
            ingresses.append(interface.neighbor_ifid)
            decision = router.process(packet, interface.neighbor_ifid)
            assert decision.action is Action.FORWARD_PRIORITY
            assert packet.path.segments[0].hopfields[1].res_id == 1
        assert ingresses[0] != ingresses[1]
        assert router.stats.demoted_duplicate == 0

    def test_without_filter_duplicates_pass(self, chain3, clock):
        from copy import deepcopy

        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = HummingbirdRouter(topology.as_of(path.src), clock, BLAKE2)
        packet = source.build_packet(b"x")
        replay = deepcopy(packet)
        assert router.process(packet, 0).action is Action.FORWARD_PRIORITY
        assert router.process(replay, 0).action is Action.FORWARD_PRIORITY

    def test_boundary_flyover_spans_two_hopfields(self, clock):
        """A reservation at a segment-boundary AS authenticates correctly."""
        from repro.netsim.scenarios import SIM_PRF
        from repro.scion.beaconing import run_beaconing
        from repro.scion.paths import PathLookup
        from repro.scion.topology import core_mesh_topology

        topology = core_mesh_topology(2, 1)
        store = run_beaconing(topology, timestamp=T0, prf_factory=SIM_PRF)
        leaves = [a.isd_as for a in topology.ases if not a.is_core]
        path = PathLookup(store).find_paths(leaves[0], leaves[1])[0]
        reservations = grant_full_path(topology, path, start=T0 - 5, prf_factory=SIM_PRF)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, SIM_PRF)
        routers = {
            a.isd_as: HummingbirdRouter(a, clock, SIM_PRF) for a in topology.ases
        }
        decisions = walk_path(topology, routers, source.build_packet(b"x" * 50), path.src)
        assert decisions[-1].action is Action.DELIVER
        assert all(d.action is Action.FORWARD_PRIORITY for d in decisions[:-1])
        # Boundary crossings processed two hop fields but one reservation.
        assert len(decisions) == 4


class TestReversal:
    def test_reverse_and_traverse_back(self, chain3, clock):
        from repro.hummingbird.reversal import reverse_path
        from repro.scion.packet import PATH_TYPE_HUMMINGBIRD, ScionPacket

        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        routers = routers_for(topology, clock)
        packet = source.build_packet(b"ping")
        walk_path(topology, routers, packet, path.src)

        reversed_path = reverse_path(packet.path)
        assert flyover_count(reversed_path) == 0  # flyovers stripped
        reply = ScionPacket(
            src=dst,
            dst=src,
            path=reversed_path,
            payload=b"pong",
            path_type=PATH_TYPE_HUMMINGBIRD,
        )
        decisions = walk_path(topology, routers, reply, path.dst)
        assert decisions[-1].action is Action.DELIVER

    def test_reverse_requires_full_traversal(self, chain3, clock):
        from repro.hummingbird.reversal import reverse_path

        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x")
        with pytest.raises(ValueError):
            reverse_path(packet.path)
