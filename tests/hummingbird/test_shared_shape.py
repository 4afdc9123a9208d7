"""A packet owns only what routers write: its segments list, its SegIDs, its
cursors and its flyover hop fields.  Plain hop fields and the segments that
hold only them are frozen and shared with the source and its path."""

import dataclasses

import pytest

from tests.conftest import BLAKE2, T0, addresses, grant_full_path, replace_hop, walk_path

from repro.hummingbird.pathtype import is_flyover
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.scion.router import Action


def _hops(packet) -> list:
    return [hop for segment in packet.path.segments for hop in segment.hopfields]


@pytest.fixture
def sources(chain5, clock):
    """A best-effort source and one reserving the middle two crossings."""
    topology, path = chain5
    reservations = grant_full_path(topology, path, start=T0 - 5)[1:3]
    best_effort = ScionBestEffortSource(*addresses(path), path)
    partial = HummingbirdSource(*addresses(path), path, reservations, clock, BLAKE2)
    return topology, path, best_effort, partial


def test_two_packets_from_one_source_share_their_plain_hop_fields(sources):
    _, path, best_effort, partial = sources
    for source in (best_effort, partial):
        first, second = source.build_packet(b"a"), source.build_packet(b"b")
        assert first.path.segments is not second.path.segments
        assert first.path.segids is not second.path.segids
        for one, other in zip(_hops(first), _hops(second)):
            assert (one is other) != is_flyover(one)  # plain: shared; flyover: its own
    plain = [hop for segment in path.segments for hop in segment.hopfields]
    assert all(a is b for a, b in zip(_hops(best_effort.build_packet(b"c")), plain))


def test_a_plain_hop_field_and_a_segment_refuse_assignment(sources):
    _, _, best_effort, _ = sources
    packet = best_effort.build_packet(b"x")
    segment = packet.path.segments[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        segment.hopfields[0].mac = bytes(6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        segment.cons_dir = not segment.cons_dir
    assert isinstance(segment.hopfields, tuple)


def test_a_hop_replaced_in_one_packet_changes_nothing_else(sources):
    _, path, best_effort, partial = sources
    before = dataclasses.replace(path, segments=list(path.segments))
    for source in (best_effort, partial):
        template = [segment.hopfields for segment in source._template.segments]
        forged = source.build_packet(b"x")
        replace_hop(forged.path, 0, 0, mac=bytes(6), cons_egress=9)
        assert forged.path.segments[0].hopfields[0].mac == bytes(6)
        following = source.build_packet(b"x")
        assert following.path.segments[0].hopfields[0].mac != bytes(6)
        assert [segment.hopfields for segment in source._template.segments] == template
    assert path == before


def test_a_flyover_hop_field_is_the_packet_s_own_and_writable(sources):
    topology, path, _, partial = sources
    packet = partial.build_packet(b"x")
    (flyover, *_) = [hop for hop in _hops(packet) if is_flyover(hop)]
    forged = bytes(b ^ 0xFF for b in flyover.mac)
    flyover.mac = forged
    assert all(hop.mac != forged for hop in _hops(partial.build_packet(b"x")))


def test_routing_one_packet_leaves_the_next_one_untouched(sources, clock):
    topology, path, best_effort, partial = sources
    for source in (best_effort, partial):
        routers = {a.isd_as: HummingbirdRouter(a, clock, BLAKE2) for a in topology.ases}
        first = source.build_packet(b"x")
        second = source.build_packet(b"x")
        segids = list(second.path.segids)
        macs = [hop.mac for hop in _hops(second)]
        assert walk_path(topology, routers, first, path.src)[-1].action is Action.DELIVER
        assert first.path.segids != segids
        assert second.path.segids == segids and second.path.curr_hf == 0
        assert [hop.mac for hop in _hops(second)] == macs
        assert walk_path(topology, routers, second, path.src)[-1].action is Action.DELIVER
