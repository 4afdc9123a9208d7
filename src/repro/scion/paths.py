"""Forwarding-path construction: combining segments into end-to-end paths.

A forwarding path is built from one to three segments:

* an *up* segment from the source AS to a core AS (traversed against
  construction, C=0),
* optionally a *core* segment between two core ASes (also C=0, since core
  segments are constructed from the remote origin),
* a *down* segment from a core AS to the destination AS (C=1).

Degenerate combinations (core-only, up-only, down-only, up+down through a
shared core) are supported; SCION peering shortcuts are not modelled.

At segment boundaries the joining AS appears in **both** segments (Appendix
A.5); :func:`as_crossings` merges the two hop fields into one logical AS
crossing, which is the unit the control plane reserves bandwidth for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scion.addresses import IsdAs
from repro.scion.beaconing import SegmentStore
from repro.scion.segments import PathSegment


@dataclass
class HopFieldData:
    """A hop field as carried in a packet (construction-direction semantics)."""

    cons_ingress: int
    cons_egress: int
    exp_time: int
    mac: bytes  # 6 bytes

    def copy(self) -> "HopFieldData":
        return HopFieldData(self.cons_ingress, self.cons_egress, self.exp_time, self.mac)


@dataclass
class SegmentInPath:
    """One segment of a forwarding path, hop fields in traversal order."""

    cons_dir: bool  # the C flag
    timestamp: int
    initial_segid: int  # SegID value the source writes into the InfoField
    hopfields: list[HopFieldData]
    ases: list[IsdAs]  # traversal order, parallel to hopfields

    def traversal_interfaces(self, index: int) -> tuple[int, int]:
        """(ingress, egress) in traversal direction for hop ``index``."""
        hop = self.hopfields[index]
        if self.cons_dir:
            return hop.cons_ingress, hop.cons_egress
        return hop.cons_egress, hop.cons_ingress


@dataclass
class ForwardingPath:
    """A complete end-to-end path: ordered segments plus source/destination."""

    src: IsdAs
    dst: IsdAs
    segments: list[SegmentInPath]

    @property
    def num_hopfields(self) -> int:
        return sum(len(segment.hopfields) for segment in self.segments)

    def copy(self) -> "ForwardingPath":
        """Deep-copy so a packet can mutate SegIDs without sharing state."""
        return ForwardingPath(
            src=self.src,
            dst=self.dst,
            segments=[
                SegmentInPath(
                    cons_dir=segment.cons_dir,
                    timestamp=segment.timestamp,
                    initial_segid=segment.initial_segid,
                    hopfields=[hop.copy() for hop in segment.hopfields],
                    ases=list(segment.ases),
                )
                for segment in self.segments
            ],
        )


@dataclass(frozen=True)
class AsCrossing:
    """One logical AS traversal: the unit of a flyover reservation.

    ``positions`` lists the (segment index, hop-field index) pairs of the hop
    fields belonging to this AS — two entries at segment boundaries, one
    otherwise.  A flyover always attaches to ``positions[0]`` (A.5: "it must
    be placed in the first segment as the first HF of the AS").
    """

    isd_as: IsdAs
    ingress: int  # traversal-direction ingress interface (0 at the source AS)
    egress: int  # traversal-direction egress interface (0 at the destination AS)
    positions: tuple[tuple[int, int], ...]


def _segment_in_path(segment: PathSegment, cons_dir: bool) -> SegmentInPath:
    """Orient a registered segment for traversal."""
    hopfields = [
        HopFieldData(h.cons_ingress, h.cons_egress, h.exp_time, h.mac) for h in segment.hops
    ]
    ases = [h.isd_as for h in segment.hops]
    if cons_dir:
        initial = segment.betas[0]
    else:
        hopfields.reverse()
        ases.reverse()
        initial = segment.betas[len(segment.hops)]
    return SegmentInPath(
        cons_dir=cons_dir,
        timestamp=segment.timestamp,
        initial_segid=initial,
        hopfields=hopfields,
        ases=ases,
    )


def build_forwarding_path(
    src: IsdAs,
    dst: IsdAs,
    up: PathSegment | None,
    core: PathSegment | None,
    down: PathSegment | None,
) -> ForwardingPath:
    """Assemble a forwarding path from a validated segment combination."""
    segments: list[SegmentInPath] = []
    if up is not None:
        segments.append(_segment_in_path(up, cons_dir=False))
    if core is not None:
        segments.append(_segment_in_path(core, cons_dir=False))
    if down is not None:
        segments.append(_segment_in_path(down, cons_dir=True))
    if not segments:
        raise ValueError("a forwarding path needs at least one segment")
    if len(segments) > 3:
        raise ValueError("at most three segments per path")
    return ForwardingPath(src=src, dst=dst, segments=segments)


def as_crossings(path: ForwardingPath) -> list[AsCrossing]:
    """Merge per-segment hop fields into logical AS crossings.

    Consecutive segments share their boundary AS: the first segment ends with
    traversal-egress 0 and the next begins with traversal-ingress 0 at the
    same AS; these merge into a single crossing spanning two hop fields.
    """
    crossings: list[AsCrossing] = []
    pending: tuple[IsdAs, int, tuple[int, int]] | None = None  # (as, ingress, position)
    for seg_index, segment in enumerate(path.segments):
        for hf_index in range(len(segment.hopfields)):
            isd_as = segment.ases[hf_index]
            ingress, egress = segment.traversal_interfaces(hf_index)
            position = (seg_index, hf_index)
            if pending is not None:
                pending_as, pending_ingress, pending_position = pending
                if pending_as != isd_as or ingress != 0:
                    raise ValueError(
                        f"segment boundary mismatch: {pending_as} -> {isd_as}"
                    )
                crossings.append(
                    AsCrossing(
                        isd_as=isd_as,
                        ingress=pending_ingress,
                        egress=egress,
                        positions=(pending_position, position),
                    )
                )
                pending = None
                continue
            is_last_in_segment = hf_index == len(segment.hopfields) - 1
            is_last_segment = seg_index == len(path.segments) - 1
            if is_last_in_segment and not is_last_segment:
                if egress != 0:
                    raise ValueError("segment-final hop must have traversal egress 0")
                pending = (isd_as, ingress, position)
            else:
                crossings.append(
                    AsCrossing(isd_as=isd_as, ingress=ingress, egress=egress, positions=(position,))
                )
    if pending is not None:
        raise ValueError("dangling segment boundary at end of path")
    return crossings


@dataclass
class PathLookup:
    """Path discovery over a :class:`SegmentStore` (what `sciond` does)."""

    store: SegmentStore
    core_of: dict[IsdAs, bool] = field(default_factory=dict)

    def find_paths(self, src: IsdAs, dst: IsdAs, max_paths: int = 8) -> list[ForwardingPath]:
        """Enumerate forwarding paths from ``src`` to ``dst``, shortest first."""
        if src == dst:
            raise ValueError("source and destination AS must differ")
        candidates: list[ForwardingPath] = []

        src_ups = [None] if self._is_core(src) else self.store.up_segments(src)
        dst_downs = [None] if self._is_core(dst) else self.store.down_segments(dst)

        for up in src_ups:
            core_src = src if up is None else up.first_as
            for down in dst_downs:
                core_dst = dst if down is None else down.first_as
                if core_src == core_dst:
                    if up is None and down is None:
                        continue  # src == dst was excluded; nothing to combine
                    candidates.append(build_forwarding_path(src, dst, up, None, down))
                else:
                    for core in self.store.core_segments(core_src, core_dst):
                        candidates.append(build_forwarding_path(src, dst, up, core, down))

        candidates.sort(key=lambda p: (p.num_hopfields, _route_key(p)))
        return candidates[:max_paths]

    def _is_core(self, isd_as: IsdAs) -> bool:
        if isd_as in self.core_of:
            return self.core_of[isd_as]
        # An AS with registered up segments is not core; otherwise assume core.
        return not self.store.up_segments(isd_as)


def _route_key(path: ForwardingPath) -> tuple:
    return tuple(str(a) for segment in path.segments for a in segment.ases)
