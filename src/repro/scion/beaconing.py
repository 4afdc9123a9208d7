"""Beaconing: origination and propagation of path-segment construction beacons.

Core ASes periodically originate *path-segment construction beacons* (PCBs).
Two processes run side by side:

* **intra-ISD beaconing**: core ASes send PCBs to their customers; each AS
  extends the beacon with its own authenticated hop entry and forwards it
  further down the provider hierarchy.  Completed beacons are registered as
  up-/down-segments.
* **core beaconing**: core ASes flood PCBs over core links; remote cores
  register the received beacons as core segments towards the origin.

The implementation walks the topology deterministically (BFS trees per
origin, plus simple alternative-route enumeration on the core mesh) instead
of exchanging timed messages — the *output* (chained, MAC-authenticated
segments in a :class:`SegmentStore`) is identical to what message-level
beaconing would register, and it is what both the market and the data plane
consume.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import networkx as nx

from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.scion.addresses import IsdAs
from repro.scion.hopfields import DEFAULT_EXP_TIME
from repro.scion.segments import PathSegment, SegmentKind, build_segment
from repro.scion.topology import LinkType, Topology


@dataclass
class SegmentStore:
    """Registered segments, indexed the way path lookup needs them."""

    # (leaf or any AS) -> list of intra-ISD segments ending at that AS
    intra_by_leaf: dict[IsdAs, list[PathSegment]] = field(default_factory=dict)
    # (origin core, remote core) -> core segments constructed origin -> remote
    core_by_pair: dict[tuple[IsdAs, IsdAs], list[PathSegment]] = field(default_factory=dict)

    def register_intra(self, segment: PathSegment) -> None:
        self.intra_by_leaf.setdefault(segment.last_as, []).append(segment)

    def register_core(self, segment: PathSegment) -> None:
        key = (segment.first_as, segment.last_as)
        self.core_by_pair.setdefault(key, []).append(segment)

    def up_segments(self, leaf: IsdAs) -> list[PathSegment]:
        """Segments the AS ``leaf`` can use to reach a core (traversed C=0)."""
        return list(self.intra_by_leaf.get(leaf, []))

    def down_segments(self, leaf: IsdAs) -> list[PathSegment]:
        """Segments others use to reach ``leaf`` (traversed C=1)."""
        return list(self.intra_by_leaf.get(leaf, []))

    def core_segments(self, from_core: IsdAs, to_core: IsdAs) -> list[PathSegment]:
        """Core segments for travelling ``from_core`` -> ``to_core``.

        Traversal is against construction, so these are segments constructed
        with origin ``to_core`` and final AS ``from_core``.
        """
        return list(self.core_by_pair.get((to_core, from_core), []))


def run_beaconing(
    topology: Topology,
    timestamp: int,
    exp_time: int = DEFAULT_EXP_TIME,
    prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
    core_paths_per_pair: int = 3,
    seed: int = 1,
) -> SegmentStore:
    """Run one beaconing round over the whole topology.

    Returns a :class:`SegmentStore` with intra-ISD segments for every AS
    reachable from a core, and up to ``core_paths_per_pair`` core segments
    per ordered pair of core ASes (path diversity feeds the market).
    """
    rng = random.Random(seed)
    store = SegmentStore()
    _intra_isd_beaconing(topology, timestamp, exp_time, prf_factory, store, rng)
    _core_beaconing(
        topology, timestamp, exp_time, prf_factory, store, rng, core_paths_per_pair
    )
    return store


def _intra_isd_beaconing(
    topology: Topology,
    timestamp: int,
    exp_time: int,
    prf_factory: PrfFactory,
    store: SegmentStore,
    rng: random.Random,
) -> None:
    """BFS from each core AS down the provider hierarchy, one PCB per route."""
    for core in topology.core_ases:
        # Each queue entry is the full AS route of an in-flight beacon.
        queue: deque[list[IsdAs]] = deque([[core.isd_as]])
        while queue:
            route = queue.popleft()
            if len(route) > 1:
                beta0 = rng.randrange(1 << 16)
                segment = build_segment(
                    topology,
                    route,
                    SegmentKind.INTRA_ISD,
                    timestamp,
                    beta0,
                    exp_time,
                    prf_factory,
                )
                store.register_intra(segment)
            for child in topology.children_of(route[-1]):
                if child not in route:  # guard against provider cycles
                    queue.append(route + [child])


def _core_beaconing(
    topology: Topology,
    timestamp: int,
    exp_time: int,
    prf_factory: PrfFactory,
    store: SegmentStore,
    rng: random.Random,
    core_paths_per_pair: int,
) -> None:
    """Propagate core beacons; register several simple routes per pair."""
    core_graph = nx.Graph()
    for autonomous_system in topology.core_ases:
        core_graph.add_node(autonomous_system.isd_as)
    for link in topology.links:
        if link.link_type is LinkType.CORE:
            core_graph.add_edge(link.a, link.b)

    cores = sorted(core_graph.nodes)
    for origin in cores:
        for target in cores:
            if origin == target:
                continue
            if not nx.has_path(core_graph, origin, target):
                continue
            routes = islice(
                nx.shortest_simple_paths(core_graph, origin, target),
                core_paths_per_pair,
            )
            for route in routes:
                beta0 = rng.randrange(1 << 16)
                segment = build_segment(
                    topology,
                    list(route),
                    SegmentKind.CORE,
                    timestamp,
                    beta0,
                    exp_time,
                    prf_factory,
                )
                store.register_core(segment)
