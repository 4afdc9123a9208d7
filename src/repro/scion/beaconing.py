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
origin, plus shortest-first simple-route enumeration on the core mesh by
:func:`shortest_simple_paths`) instead
of exchanging timed messages — the *output* (chained, MAC-authenticated
segments in a :class:`SegmentStore`) is identical to what message-level
beaconing would register, and it is what both the market and the data plane
consume.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterator, TypeVar

from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.scion.addresses import IsdAs
from repro.scion.hopfields import EXP_TIME
from repro.scion.segments import PathSegment, SegmentKind, build_segment
from repro.scion.topology import LinkType, Topology

SEED = 1  # of the beta0 draws, so every round registers the same segments
CORE_PATHS_PER_PAIR = 3


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
    prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
) -> SegmentStore:
    """Run one beaconing round over the whole topology.

    Returns a :class:`SegmentStore` with intra-ISD segments for every AS
    reachable from a core, and up to :data:`CORE_PATHS_PER_PAIR` core
    segments per ordered pair of core ASes (path diversity feeds the market).
    """
    rng = random.Random(SEED)
    store = SegmentStore()
    _intra_isd_beaconing(topology, timestamp, prf_factory, store, rng)
    _core_beaconing(topology, timestamp, prf_factory, store, rng)
    return store


def _intra_isd_beaconing(
    topology: Topology,
    timestamp: int,
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
                    EXP_TIME,
                    prf_factory,
                )
                store.register_intra(segment)
            for child in topology.children_of(route[-1]):
                if child not in route:  # guard against provider cycles
                    queue.append(route + [child])


def _core_beaconing(
    topology: Topology,
    timestamp: int,
    prf_factory: PrfFactory,
    store: SegmentStore,
    rng: random.Random,
) -> None:
    """Propagate core beacons; register several simple routes per pair."""
    # Neighbours in link order, parallel core links collapsed to one.
    core_mesh: dict[IsdAs, dict[IsdAs, None]] = {
        autonomous_system.isd_as: {} for autonomous_system in topology.core_ases
    }
    for link in topology.links:
        if link.link_type is LinkType.CORE:
            core_mesh[link.a][link.b] = None
            core_mesh[link.b][link.a] = None

    cores = sorted(core_mesh)
    for origin in cores:
        for target in cores:
            if origin == target:
                continue
            routes = itertools.islice(
                shortest_simple_paths(core_mesh, origin, target), CORE_PATHS_PER_PAIR
            )
            for route in routes:
                beta0 = rng.randrange(1 << 16)
                segment = build_segment(
                    topology,
                    route,
                    SegmentKind.CORE,
                    timestamp,
                    beta0,
                    EXP_TIME,
                    prf_factory,
                )
                store.register_core(segment)


Node = TypeVar("Node", bound=Hashable)


def shortest_simple_paths(
    adjacency: dict[Node, dict[Node, None]], source: Node, target: Node
) -> Iterator[list[Node]]:
    """Loopless routes ``source`` -> ``target``, fewest hops first (Yen).

    ``adjacency`` is an undirected graph as ``{node: {neighbour: None}}``.
    This is networkx's unweighted ``shortest_simple_paths`` ported
    step for step, and it yields the same routes in the same order, ties
    included. Two things fix that order: the bidirectional BFS visits
    neighbours in insertion order, and candidates leave the heap by
    (length, push order). Yields nothing when ``target`` is unreachable.
    """
    found: list[list[Node]] = []
    heap: list[tuple[int, int, list[Node]]] = []
    queued: set[tuple[Node, ...]] = set()
    pushes = itertools.count()

    def push(route: list[Node]) -> None:
        if tuple(route) not in queued:
            queued.add(tuple(route))
            heapq.heappush(heap, (len(route), next(pushes), route))

    route = _bidirectional_bfs(adjacency, source, target, set(), set())
    if route is not None:
        push(route)
    while heap:
        route = heapq.heappop(heap)[2]
        queued.remove(tuple(route))
        yield route
        found.append(route)
        ignore_nodes: set[Node] = set()
        ignore_edges: set[tuple[Node, Node]] = set()
        for i in range(1, len(route)):
            root = route[:i]
            for earlier in found:
                if earlier[:i] == root:
                    ignore_edges.add((earlier[i - 1], earlier[i]))
            spur = _bidirectional_bfs(adjacency, root[-1], target, ignore_nodes, ignore_edges)
            if spur is not None:
                push(root[:-1] + spur)
            ignore_nodes.add(root[-1])


def _bidirectional_bfs(
    adjacency: dict[Node, dict[Node, None]],
    source: Node,
    target: Node,
    ignore_nodes: set[Node],
    ignore_edges: set[tuple[Node, Node]],
) -> list[Node] | None:
    """A fewest-hop route avoiding ``ignore_nodes`` and (either direction
    of) ``ignore_edges``; the fringes grow alternately, the smaller first."""
    if source == target:
        return [source]

    def neighbours(node: Node) -> list[Node]:
        return [
            other
            for other in adjacency[node]
            if other not in ignore_nodes
            and (node, other) not in ignore_edges
            and (other, node) not in ignore_edges
        ]

    pred: dict[Node, Node | None] = {source: None}
    succ: dict[Node, Node | None] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for node in level:
                for other in neighbours(node):
                    if other not in pred:
                        forward.append(other)
                        pred[other] = node
                    if other in succ:
                        return _join(pred, succ, other)
        else:
            level, reverse = reverse, []
            for node in level:
                for other in neighbours(node):
                    if other not in succ:
                        succ[other] = node
                        reverse.append(other)
                    if other in pred:
                        return _join(pred, succ, other)
    return None


def _join(pred: dict, succ: dict, meet: Node) -> list[Node]:
    """The route through ``meet``: its predecessor chain, then successors."""
    head = []
    node = pred[meet]
    while node is not None:
        head.append(node)
        node = pred[node]
    tail = []
    node = meet
    while node is not None:
        tail.append(node)
        node = succ[node]
    return head[::-1] + tail
