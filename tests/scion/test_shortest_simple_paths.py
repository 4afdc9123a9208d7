"""``shortest_simple_paths`` against networkx, the implementation it ports.

Core beaconing registers the first ``CORE_PATHS_PER_PAIR`` routes per core
pair, so the port must give networkx's routes in networkx's order, ties
included: a different tie-break registers different segments.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import PrfFactory
from repro.scion.beaconing import CORE_PATHS_PER_PAIR, run_beaconing, shortest_simple_paths
from repro.scion.topology import LinkType, core_mesh_topology
from tests.scion.topologies import random_internet_topology

nx = pytest.importorskip("networkx")

BLAKE2 = PrfFactory("blake2")
T0 = 1_700_000_000
ROUTES_PER_PAIR = 12  # K8 has 1,957 routes per pair; the head is what ranks


def _oracle(graph, source, target, limit):
    try:
        return list(itertools.islice(nx.shortest_simple_paths(graph, source, target), limit))
    except nx.NetworkXNoPath:
        return []


@st.composite
def multigraphs(draw):
    """Up to 8 nodes; edges may repeat (parallel links) or be self-loops,
    and sparse draws leave pairs disconnected."""
    size = draw(st.integers(1, 8))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    return size, edges


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_routes_match_networkx_in_order(drawn):
    size, edges = drawn
    graph = nx.Graph()
    graph.add_nodes_from(range(size))
    graph.add_edges_from(edges)
    adjacency = {node: {} for node in range(size)}
    for a, b in edges:
        adjacency[a][b] = None
        adjacency[b][a] = None
    for source, target in itertools.product(range(size), repeat=2):
        routes = list(
            itertools.islice(shortest_simple_paths(adjacency, source, target), ROUTES_PER_PAIR)
        )
        assert routes == _oracle(graph, source, target, ROUTES_PER_PAIR), (source, target)


def test_unreachable_target_yields_nothing():
    assert list(shortest_simple_paths({0: {}, 1: {}}, 0, 1)) == []


@pytest.mark.parametrize(
    "topology",
    [
        *(core_mesh_topology(cores, 1) for cores in range(2, 7)),
        *(random_internet_topology(7, 4, seed=seed) for seed in (1, 2, 3, 5, 8)),
    ],
    ids=[*(f"mesh{cores}" for cores in range(2, 7)), *(f"random{s}" for s in (1, 2, 3, 5, 8))],
)
def test_registered_core_segments_match_networkx(topology):
    store = run_beaconing(topology, timestamp=T0, prf_factory=BLAKE2)
    graph = nx.Graph()
    graph.add_nodes_from(a.isd_as for a in topology.core_ases)
    graph.add_edges_from(
        (link.a, link.b) for link in topology.links if link.link_type is LinkType.CORE
    )
    expected = {}
    for origin, target in itertools.permutations(sorted(graph.nodes), 2):
        routes = _oracle(graph, origin, target, CORE_PATHS_PER_PAIR)
        if routes:
            expected[origin, target] = routes
    registered = {
        pair: [[hop.isd_as for hop in segment.hops] for segment in segments]
        for pair, segments in store.core_by_pair.items()
    }
    assert registered == expected
