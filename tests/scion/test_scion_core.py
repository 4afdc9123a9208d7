"""SCION substrate: addresses, topology, segments, beaconing, paths."""

import pytest

from repro.crypto.prf import PrfFactory
from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.beaconing import run_beaconing
from repro.scion.hopfields import chain_segid, compute_hopfield_mac
from repro.scion.paths import PathLookup, as_crossings, build_forwarding_path
from repro.scion.segments import SegmentKind, build_segment
from repro.scion.topology import LinkType, Topology, core_mesh_topology, linear_topology
from tests.scion.topologies import parents_of, random_internet_topology

BLAKE2 = PrfFactory("blake2")
T0 = 1_700_000_000


class TestAddresses:
    def test_isd_as_string(self):
        assert str(IsdAs(1, 0xFF00_0000_0110)) == "1-ff00:0:110"

    def test_pack_unpack(self):
        original = IsdAs(42, 0x0001_0002_0003)
        assert IsdAs.unpack(original.pack()) == original

    def test_bounds(self):
        with pytest.raises(ValueError):
            IsdAs(1 << 16, 0)
        with pytest.raises(ValueError):
            IsdAs(0, 1 << 48)

    def test_host_addr_dotted_quad(self):
        addr = HostAddr.from_string("10.1.2.3")
        assert str(addr) == "10.1.2.3"
        assert HostAddr.unpack(addr.pack()) == addr

    def test_bad_dotted_quad(self):
        with pytest.raises(ValueError):
            HostAddr.from_string("300.0.0.1")

    def test_scion_addr_string(self):
        addr = ScionAddr(IsdAs(1, 5), HostAddr.from_string("1.2.3.4"))
        assert str(addr) == "1-0:0:5,1.2.3.4"


class TestTopology:
    def test_linear_links(self):
        topo = linear_topology(4)
        assert len(topo.ases) == 4
        assert len(topo.links) == 3
        assert len(topo.core_ases) == 1

    def test_interfaces_are_paired(self):
        topo = linear_topology(3)
        for link in topo.links:
            a_iface = topo.as_of(link.a).interfaces[link.a_ifid]
            b_iface = topo.as_of(link.b).interfaces[link.b_ifid]
            assert a_iface.neighbor == link.b and a_iface.neighbor_ifid == link.b_ifid
            assert b_iface.neighbor == link.a and b_iface.neighbor_ifid == link.a_ifid

    def test_core_link_requires_core_ases(self):
        topo = linear_topology(2)
        with pytest.raises(ValueError):
            topo.add_link(topo.ases[0].isd_as, topo.ases[1].isd_as, LinkType.CORE)

    def test_duplicate_as_rejected(self):
        topo = Topology()
        topo.add_as(IsdAs(1, 1), is_core=True)
        with pytest.raises(ValueError):
            topo.add_as(IsdAs(1, 1), is_core=True)

    def test_children_and_parents(self):
        topo = core_mesh_topology(2, 2)
        core = topo.core_ases[0].isd_as
        children = topo.children_of(core)
        assert len(children) == 2
        assert all(core in parents_of(topo, child) for child in children)

    def test_random_topology_is_connected(self):
        import networkx as nx

        topo = random_internet_topology(5, 10, seed=3)
        graph = nx.Graph()
        graph.add_nodes_from(a.isd_as for a in topo.ases)
        graph.add_edges_from((link.a, link.b) for link in topo.links)
        assert nx.is_connected(graph)

    def test_distinct_secret_values(self):
        topo = linear_topology(3)
        values = {a.secret_value.key for a in topo.ases}
        assert len(values) == 3


class TestSegments:
    def test_beta_chain(self):
        topo = linear_topology(3)
        route = [a.isd_as for a in topo.ases]
        segment = build_segment(topo, route, SegmentKind.INTRA_ISD, T0, 0x1234, 63, BLAKE2)
        assert segment.betas[0] == 0x1234
        for i, hop in enumerate(segment.hops):
            assert segment.betas[i + 1] == chain_segid(segment.betas[i], hop.mac)

    def test_macs_verify_with_as_keys(self):
        topo = linear_topology(3)
        route = [a.isd_as for a in topo.ases]
        segment = build_segment(topo, route, SegmentKind.INTRA_ISD, T0, 7, 63, BLAKE2)
        for i, hop in enumerate(segment.hops):
            expected = compute_hopfield_mac(
                BLAKE2(topo.as_of(hop.isd_as).forwarding_key),
                segment.betas[i],
                T0,
                hop.exp_time,
                hop.cons_ingress,
                hop.cons_egress,
            )
            assert expected == hop.mac

    def test_endpoints_have_zero_interfaces(self):
        topo = linear_topology(3)
        route = [a.isd_as for a in topo.ases]
        segment = build_segment(topo, route, SegmentKind.INTRA_ISD, T0, 7, 63, BLAKE2)
        assert segment.hops[0].cons_ingress == 0
        assert segment.hops[-1].cons_egress == 0

    def test_unlinked_route_rejected(self):
        topo = linear_topology(3)
        route = [topo.ases[0].isd_as, topo.ases[2].isd_as]
        with pytest.raises(ValueError):
            build_segment(topo, route, SegmentKind.INTRA_ISD, T0, 7, 63, BLAKE2)


class TestBeaconing:
    def test_every_leaf_gets_segments(self):
        topo = core_mesh_topology(2, 3)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        for autonomous_system in topo.ases:
            if not autonomous_system.is_core:
                assert store.up_segments(autonomous_system.isd_as)

    def test_core_segment_direction_convention(self):
        topo = core_mesh_topology(3, 1)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        cores = [a.isd_as for a in topo.core_ases]
        segments = store.core_segments(cores[0], cores[1])
        assert segments
        # Constructed at the remote origin, ending at the local core.
        for segment in segments:
            assert segment.first_as == cores[1]
            assert segment.last_as == cores[0]

    def test_core_path_diversity(self):
        topo = core_mesh_topology(4, 1)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        cores = [a.isd_as for a in topo.core_ases]
        assert len(store.core_segments(cores[0], cores[1])) >= 2


class TestPaths:
    def test_up_only_path(self, chain3=None):
        topo = linear_topology(3)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        lookup = PathLookup(store)
        paths = lookup.find_paths(topo.ases[2].isd_as, topo.ases[0].isd_as)
        assert paths and len(paths[0].segments) == 1
        assert not paths[0].segments[0].cons_dir  # traversed against construction

    def test_down_only_path(self):
        topo = linear_topology(3)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        lookup = PathLookup(store)
        paths = lookup.find_paths(topo.ases[0].isd_as, topo.ases[2].isd_as)
        assert paths and paths[0].segments[0].cons_dir

    def test_three_segment_path(self):
        topo = core_mesh_topology(2, 1)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        lookup = PathLookup(store)
        leaves = [a.isd_as for a in topo.ases if not a.is_core]
        paths = lookup.find_paths(leaves[0], leaves[1])
        assert paths
        assert len(paths[0].segments) == 3

    def test_crossings_merge_segment_boundaries(self):
        topo = core_mesh_topology(2, 1)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        lookup = PathLookup(store)
        leaves = [a.isd_as for a in topo.ases if not a.is_core]
        path = lookup.find_paths(leaves[0], leaves[1])[0]
        crossings = as_crossings(path)
        # leaf, core, core, leaf: 4 ASes but 6 hop fields (2 boundaries)
        assert len(crossings) == 4
        assert path.num_hopfields == 6
        boundary = crossings[1]
        assert len(boundary.positions) == 2
        assert boundary.ingress != 0 and boundary.egress != 0

    def test_endpoint_interfaces_are_zero(self):
        topo = linear_topology(4)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        path = PathLookup(store).find_paths(topo.ases[3].isd_as, topo.ases[0].isd_as)[0]
        crossings = as_crossings(path)
        assert crossings[0].ingress == 0
        assert crossings[-1].egress == 0

    def test_same_as_rejected(self):
        topo = linear_topology(2)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        with pytest.raises(ValueError):
            PathLookup(store).find_paths(topo.ases[0].isd_as, topo.ases[0].isd_as)

    def test_multipath_in_random_internet(self):
        topo = random_internet_topology(5, 8, seed=11)
        store = run_beaconing(topo, timestamp=T0, prf_factory=BLAKE2)
        lookup = PathLookup(store)
        leaves = [a.isd_as for a in topo.ases if not a.is_core]
        found_multi = False
        for src in leaves[:4]:
            for dst in leaves[4:]:
                if src == dst:
                    continue
                if len(lookup.find_paths(src, dst)) > 1:
                    found_multi = True
        assert found_multi, "expected path diversity in a multihomed topology"

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            build_forwarding_path(IsdAs(1, 1), IsdAs(1, 2), None, None, None)
