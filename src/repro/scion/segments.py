"""Path segments: the control-plane output of beaconing.

A :class:`PathSegment` is an ordered list of AS crossings in *construction
direction* (the direction the beacon travelled), each authenticated by a
chained hop-field MAC.  Segments come in two flavours:

* intra-ISD segments, constructed core → leaf, registered both as *up*
  segments (traversed leaf → core, against construction) and *down*
  segments (traversed core → leaf, in construction direction);
* core segments, constructed origin-core → remote-core, traversed towards
  the origin (against construction).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.scion.addresses import IsdAs
from repro.scion.hopfields import chain_segid, compute_hopfield_mac
from repro.scion.topology import Topology


class SegmentKind(enum.Enum):
    INTRA_ISD = "intra_isd"  # usable as up or down segment
    CORE = "core"


@dataclass(frozen=True)
class HopEntry:
    """One AS crossing within a segment, in construction-direction semantics."""

    isd_as: IsdAs
    cons_ingress: int  # interface the beacon entered through (0 at the origin AS)
    cons_egress: int  # interface the beacon left through (0 at the final AS)
    exp_time: int  # 8-bit relative expiry
    mac: bytes  # 6-byte chained hop-field MAC


@dataclass(frozen=True)
class PathSegment:
    """An authenticated, immutable path segment."""

    kind: SegmentKind
    timestamp: int  # beacon origination time (InfoField timestamp)
    beta0: int  # initial SegID chosen by the origin AS
    hops: tuple[HopEntry, ...]
    betas: tuple[int, ...]  # beta_i for i in 0..len(hops); betas[0] == beta0

    @property
    def first_as(self) -> IsdAs:
        return self.hops[0].isd_as

    @property
    def last_as(self) -> IsdAs:
        return self.hops[-1].isd_as

    def __len__(self) -> int:
        return len(self.hops)

    def __repr__(self) -> str:
        route = " -> ".join(str(h.isd_as) for h in self.hops)
        return f"PathSegment({self.kind.value}: {route})"


def build_segment(
    topology: Topology,
    as_route: list[IsdAs],
    kind: SegmentKind,
    timestamp: int,
    beta0: int,
    exp_time: int,
    prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
) -> PathSegment:
    """Construct an authenticated segment along ``as_route``.

    ``as_route`` is given in construction direction (origin first).  Each
    consecutive pair must be directly linked in the topology.  The function
    performs the per-AS work of beacon extension: pick the ingress/egress
    interfaces, compute the chained MAC, and advance the SegID accumulator.
    """
    if len(as_route) < 1:
        raise ValueError("a segment needs at least one AS")
    hops: list[HopEntry] = []
    betas: list[int] = [beta0]
    seg_id = beta0
    for index, isd_as in enumerate(as_route):
        autonomous_system = topology.as_of(isd_as)
        if index == 0:
            cons_ingress = 0
        else:
            interface = autonomous_system.interface_to(as_route[index - 1])
            if interface is None:
                raise ValueError(f"no link between {as_route[index - 1]} and {isd_as}")
            cons_ingress = interface.ifid
        if index == len(as_route) - 1:
            cons_egress = 0
        else:
            interface = autonomous_system.interface_to(as_route[index + 1])
            if interface is None:
                raise ValueError(f"no link between {isd_as} and {as_route[index + 1]}")
            cons_egress = interface.ifid
        mac = compute_hopfield_mac(
            prf_factory(autonomous_system.forwarding_key),
            seg_id,
            timestamp,
            exp_time,
            cons_ingress,
            cons_egress,
        )
        hops.append(HopEntry(isd_as, cons_ingress, cons_egress, exp_time, mac))
        seg_id = chain_segid(seg_id, mac)
        betas.append(seg_id)
    return PathSegment(
        kind=kind,
        timestamp=timestamp,
        beta0=beta0,
        hops=tuple(hops),
        betas=tuple(betas),
    )
