"""Test-only topology helpers: a random SCION-like internet and a parent lookup.

The runtime builds linear chains and core meshes; these two serve the
beaconing and path-enumeration tests as an oracle of varied shapes.
"""

from __future__ import annotations

import random

from repro.scion.addresses import IsdAs
from repro.scion.topology import ISD, LinkType, Topology

MULTIHOMING_PROBABILITY = 0.3  # share of random leaves with two providers


def parents_of(topology: Topology, isd_as: IsdAs) -> list[IsdAs]:
    """Provider ASes of ``isd_as`` over PARENT_CHILD links."""
    return [
        link.a
        for link in topology.links
        if link.link_type is LinkType.PARENT_CHILD and link.b == isd_as
    ]


def random_internet_topology(
    num_cores: int,
    num_leaves: int,
    seed: int = 7,
) -> Topology:
    """A randomized SCION-like internet: sparse core mesh + multihomed leaves.

    Leaves attach to one or (with :data:`MULTIHOMING_PROBABILITY`) two providers,
    which produces the path diversity the paper's market analysis relies on
    (§5.3: "between most source/destination pairs, there are more than
    twenty ... paths available").
    """
    rng = random.Random(seed)
    topo = Topology()
    cores = [IsdAs(ISD, 0xC000_0000_0000 + i) for i in range(num_cores)]
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
        leaf = IsdAs(ISD, 0x0001_0000_0000 + leaf_index)
        topo.add_as(leaf, is_core=False)
        providers = rng.sample(cores, 2 if rng.random() < MULTIHOMING_PROBABILITY else 1)
        for provider in providers:
            topo.add_link(provider, leaf, LinkType.PARENT_CHILD)
    return topo
