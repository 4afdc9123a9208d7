"""SCION substrate: addressing, topology, beaconing, paths, packets, routers.

Hummingbird is specified as a SCION path type (Appendix A); this package
provides the surrounding architecture: ISD/AS addressing, an AS-level
topology with typed links, beaconing that constructs MAC-chained path
segments, segment combination into forwarding paths, byte-exact packet
headers, and the baseline best-effort border router.
"""

from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.beaconing import SegmentStore, run_beaconing
from repro.scion.packet import (
    PATH_TYPE_HUMMINGBIRD,
    PATH_TYPE_SCION,
    PacketPath,
    ScionPacket,
    decode_packet,
    encode_packet,
)
from repro.scion.paths import (
    AsCrossing,
    ForwardingPath,
    PathLookup,
    as_crossings,
    build_forwarding_path,
)
from repro.scion.router import Action, Decision, ScionRouter
from repro.scion.segments import PathSegment, SegmentKind, build_segment
from repro.scion.topology import (
    AutonomousSystem,
    LinkType,
    Topology,
    core_mesh_topology,
    linear_topology,
)

__all__ = [
    "HostAddr",
    "IsdAs",
    "ScionAddr",
    "SegmentStore",
    "run_beaconing",
    "PATH_TYPE_HUMMINGBIRD",
    "PATH_TYPE_SCION",
    "PacketPath",
    "ScionPacket",
    "decode_packet",
    "encode_packet",
    "AsCrossing",
    "ForwardingPath",
    "PathLookup",
    "as_crossings",
    "build_forwarding_path",
    "Action",
    "Decision",
    "ScionRouter",
    "PathSegment",
    "SegmentKind",
    "build_segment",
    "AutonomousSystem",
    "LinkType",
    "Topology",
    "core_mesh_topology",
    "linear_topology",
]
