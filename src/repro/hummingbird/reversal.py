"""Path reversal (Appendix A.8).

The destination of a Hummingbird packet can answer over the same path by
reversing it.  Reversal

* converts every FlyoverHopField back to a plain HopField (reservations are
  unidirectional; the flyover-specific fields are stripped and the flyover
  bit cleared) — this works because every on-path router replaced the
  AggMAC with the plain hop-field MAC after verification (A.7);
* reverses the order of segments and of the hop fields within each segment;
* flips each construction-direction flag;
* resets the cursors to the beginning.

The resulting path is a valid Hummingbird-type path without reservations;
:func:`to_standard_path` further converts it to the regular SCION path type
(drop the timestamp triple, re-encode the SegLen values).
"""

from __future__ import annotations

from repro.hummingbird.pathtype import HummingbirdPath, is_flyover
from repro.scion.packet import PacketPath
from repro.scion.paths import SegmentInPath


def reverse_path(path: PacketPath) -> HummingbirdPath:
    """Reverse a fully traversed path for the return direction.

    Must be called at the destination, after all routers processed their hop
    fields: the SegID accumulators then hold exactly the values the reverse
    traversal needs as initial values, and all AggMACs have been replaced by
    plain hop-field MACs.
    """
    if not path.at_end():
        raise ValueError("can only reverse a fully traversed path")
    reversed_segments: list[SegmentInPath] = []
    reversed_segids: list[int] = []
    for seg_index in range(len(path.segments) - 1, -1, -1):
        segment = path.segments[seg_index]
        segid = path.segids[seg_index]
        reversed_segments.append(
            SegmentInPath(
                cons_dir=not segment.cons_dir,
                timestamp=segment.timestamp,
                initial_segid=segid,
                hopfields=tuple(
                    hop.plain() if is_flyover(hop) else hop for hop in reversed(segment.hopfields)
                ),
                ases=segment.ases[::-1],
            )
        )
        reversed_segids.append(segid)
    base = path.base_timestamp if isinstance(path, HummingbirdPath) else 0
    return HummingbirdPath(
        segments=reversed_segments,
        segids=reversed_segids,
        curr_inf=0,
        curr_hf=0,
        base_timestamp=base,
        millis_timestamp=0,
        counter=0,
    )


def to_standard_path(path: HummingbirdPath) -> PacketPath:
    """Convert a reservation-free Hummingbird path to the SCION path type."""
    for segment in path.segments:
        for hop in segment.hopfields:
            if is_flyover(hop):
                raise ValueError("strip flyovers (reverse_path) before converting")
    return PacketPath(
        segments=list(path.segments),
        segids=list(path.segids),
        curr_inf=path.curr_inf,
        curr_hf=path.curr_hf,
    )
