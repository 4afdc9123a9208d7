"""AS-level topology: autonomous systems, interfaces, and inter-AS links.

The topology is the static substrate under both planes: beaconing walks it
to construct path segments, the market references its interface identifiers,
and the data-plane simulation forwards packets across its links.

Link types follow SCION:

* ``CORE`` links connect core ASes (traversed by core segments).
* ``PARENT_CHILD`` links connect a provider (parent) to a customer (child)
  and are traversed by up-/down-segments.

Interfaces are AS-local 16-bit identifiers, starting at 1 (0 means "inside
the AS" and marks segment endpoints in hop fields).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

import networkx as nx

from repro.crypto.keys import SecretValue
from repro.scion.addresses import IsdAs


class LinkType(enum.Enum):
    CORE = "core"
    PARENT_CHILD = "parent_child"


@dataclass(frozen=True)
class Interface:
    """One endpoint of an inter-AS link."""

    owner: IsdAs
    ifid: int
    neighbor: IsdAs
    neighbor_ifid: int
    link_type: LinkType


@dataclass
class AutonomousSystem:
    """An AS: identity, role, keys, and its interface table."""

    isd_as: IsdAs
    is_core: bool
    forwarding_key: bytes = b""  # K_i: MACs SCION hop fields
    secret_value: SecretValue | None = None  # SV_i: derives Hummingbird keys
    interfaces: dict[int, Interface] = field(default_factory=dict)
    _next_ifid: int = 1

    def __post_init__(self) -> None:
        if not self.forwarding_key:
            self.forwarding_key = SecretValue.from_seed(f"fwd-{self.isd_as}").key
        if self.secret_value is None:
            self.secret_value = SecretValue.from_seed(f"sv-{self.isd_as}")

    def allocate_interface(
        self, neighbor: IsdAs, neighbor_ifid: int, link_type: LinkType
    ) -> Interface:
        ifid = self._next_ifid
        self._next_ifid += 1
        interface = Interface(self.isd_as, ifid, neighbor, neighbor_ifid, link_type)
        self.interfaces[ifid] = interface
        return interface

    def interface_to(self, neighbor: IsdAs) -> Interface | None:
        """First interface facing ``neighbor`` (topologies here use single links)."""
        for interface in self.interfaces.values():
            if interface.neighbor == neighbor:
                return interface
        return None


@dataclass(frozen=True)
class Link:
    """An undirected inter-AS link between two concrete interfaces."""

    a: IsdAs
    a_ifid: int
    b: IsdAs
    b_ifid: int
    link_type: LinkType


class Topology:
    """A mutable AS-level topology with interface bookkeeping.

    >>> topo = Topology()
    >>> a = topo.add_as(IsdAs(1, 1), is_core=True)
    >>> b = topo.add_as(IsdAs(1, 2), is_core=False)
    >>> link = topo.add_link(a.isd_as, b.isd_as, LinkType.PARENT_CHILD)
    >>> topo.as_of(IsdAs(1, 2)).interfaces[1].neighbor == a.isd_as
    True
    """

    def __init__(self) -> None:
        self._ases: dict[IsdAs, AutonomousSystem] = {}
        self._links: list[Link] = []
        self._graph = nx.Graph()

    # -- construction -------------------------------------------------------

    def add_as(self, isd_as: IsdAs, is_core: bool) -> AutonomousSystem:
        if isd_as in self._ases:
            raise ValueError(f"AS {isd_as} already exists")
        autonomous_system = AutonomousSystem(isd_as=isd_as, is_core=is_core)
        self._ases[isd_as] = autonomous_system
        self._graph.add_node(isd_as, is_core=is_core)
        return autonomous_system

    def add_link(self, a: IsdAs, b: IsdAs, link_type: LinkType) -> Link:
        """Create a bidirectional link; for PARENT_CHILD, ``a`` is the parent."""
        as_a = self.as_of(a)
        as_b = self.as_of(b)
        if link_type is LinkType.CORE and not (as_a.is_core and as_b.is_core):
            raise ValueError(f"core link requires two core ASes: {a}, {b}")
        # Interfaces reference each other; allocate in two steps.
        ifid_a = as_a._next_ifid
        ifid_b = as_b._next_ifid
        as_a.allocate_interface(b, ifid_b, link_type)
        as_b.allocate_interface(a, ifid_a, link_type)
        link = Link(a, ifid_a, b, ifid_b, link_type)
        self._links.append(link)
        self._graph.add_edge(a, b, link_type=link_type)
        return link

    # -- queries ------------------------------------------------------------

    def as_of(self, isd_as: IsdAs) -> AutonomousSystem:
        try:
            return self._ases[isd_as]
        except KeyError:
            raise KeyError(f"unknown AS {isd_as}") from None

    @property
    def ases(self) -> list[AutonomousSystem]:
        return list(self._ases.values())

    @property
    def core_ases(self) -> list[AutonomousSystem]:
        return [a for a in self._ases.values() if a.is_core]

    @property
    def links(self) -> list[Link]:
        return list(self._links)

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    def children_of(self, isd_as: IsdAs) -> list[IsdAs]:
        """Customer ASes reachable over PARENT_CHILD links where we are parent."""
        children = []
        for link in self._links:
            if link.link_type is LinkType.PARENT_CHILD and link.a == isd_as:
                children.append(link.b)
        return children

    def parents_of(self, isd_as: IsdAs) -> list[IsdAs]:
        parents = []
        for link in self._links:
            if link.link_type is LinkType.PARENT_CHILD and link.b == isd_as:
                parents.append(link.a)
        return parents


# ---------------------------------------------------------------------------
# Topology generators
# ---------------------------------------------------------------------------


def linear_topology(num_ases: int, isd: int = 1) -> Topology:
    """A chain of ``num_ases`` ASes: one core followed by a provider chain.

    This mirrors the paper's running example (Fig. 1, a path of five ASes)
    and is the workhorse fixture for data-plane tests.
    """
    if num_ases < 1:
        raise ValueError("need at least one AS")
    topo = Topology()
    isd_ases = [IsdAs(isd, 0x0001_0000_0000 + i) for i in range(num_ases)]
    topo.add_as(isd_ases[0], is_core=True)
    for i in range(1, num_ases):
        topo.add_as(isd_ases[i], is_core=False)
        topo.add_link(isd_ases[i - 1], isd_ases[i], LinkType.PARENT_CHILD)
    return topo


def core_mesh_topology(num_cores: int, children_per_core: int, isd: int = 1) -> Topology:
    """A full mesh of core ASes, each with a small provider tree below it."""
    if num_cores < 1:
        raise ValueError("need at least one core AS")
    topo = Topology()
    cores = [IsdAs(isd, 0xC000_0000_0000 + i) for i in range(num_cores)]
    for core in cores:
        topo.add_as(core, is_core=True)
    for i, core_a in enumerate(cores):
        for core_b in cores[i + 1 :]:
            topo.add_link(core_a, core_b, LinkType.CORE)
    for core_index, core in enumerate(cores):
        for child_index in range(children_per_core):
            child = IsdAs(isd, 0x0001_0000_0000 + core_index * 1000 + child_index)
            topo.add_as(child, is_core=False)
            topo.add_link(core, child, LinkType.PARENT_CHILD)
    return topo


def random_internet_topology(
    num_cores: int,
    num_leaves: int,
    seed: int = 7,
    isd: int = 1,
    multihoming_probability: float = 0.3,
) -> Topology:
    """A randomized SCION-like internet: sparse core mesh + multihomed leaves.

    Leaves attach to one or (with ``multihoming_probability``) two providers,
    which produces the path diversity the paper's market analysis relies on
    (§5.3: "between most source/destination pairs, there are more than
    twenty ... paths available").
    """
    rng = random.Random(seed)
    topo = Topology()
    cores = [IsdAs(isd, 0xC000_0000_0000 + i) for i in range(num_cores)]
    for core in cores:
        topo.add_as(core, is_core=True)
    # Ring + random chords keeps the core connected but not complete.
    for i in range(num_cores):
        topo.add_link(cores[i], cores[(i + 1) % num_cores], LinkType.CORE)
    existing = {frozenset((cores[i], cores[(i + 1) % num_cores])) for i in range(num_cores)}
    for i in range(num_cores):
        for j in range(i + 2, num_cores):
            pair = frozenset((cores[i], cores[j]))
            if pair not in existing and rng.random() < 0.4:
                topo.add_link(cores[i], cores[j], LinkType.CORE)
                existing.add(pair)
    for leaf_index in range(num_leaves):
        leaf = IsdAs(isd, 0x0001_0000_0000 + leaf_index)
        topo.add_as(leaf, is_core=False)
        providers = rng.sample(cores, 2 if rng.random() < multihoming_probability else 1)
        for provider in providers:
            topo.add_link(provider, leaf, LinkType.PARENT_CHILD)
    return topo
