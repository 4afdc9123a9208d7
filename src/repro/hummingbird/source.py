"""Source-side packet generation (§4.3, Table 4 pipeline).

A :class:`HummingbirdSource` owns a forwarding path, the flyover
reservations the host has redeemed for (some of) the path's AS crossings,
and a timestamp allocator.  ``build_packet`` performs the per-packet work
the paper benchmarks at the source gateway:

1. add Ethernet/IP/SCION header fields (here: the authenticated ``PktLen``,
   from the header length the source's template fixes),
2. compute the flyover MAC for every reserved hop (Eq. 7a),
3. assemble the hop fields (plain and flyover, AggMAC aggregation),
4. attach the payload.

Reservations are matched to AS crossings by (AS, traversal ingress,
traversal egress); hops without a matching reservation stay plain hop
fields — partial paths are first-class (§3.1, "Independent & Composable
Flyover Reservations").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.clock import Clock
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.hummingbird.mac import TAG_LEN, checked_pkt_len, compute_flyover_mac
from repro.hummingbird.pathtype import FlyoverHopFieldData, HummingbirdPath
from repro.hummingbird.reservation import FlyoverReservation
from repro.scion.addresses import ScionAddr
from repro.scion.packet import (
    NEXT_HDR_UDP,
    PATH_TYPE_HUMMINGBIRD,
    PATH_TYPE_SCION,
    PacketPath,
    ScionPacket,
)
from repro.scion.paths import AsCrossing, ForwardingPath, SegmentInPath, as_crossings
from repro.wire.timestamps import PacketTimestamp, TimestampAllocator

_from_bytes = int.from_bytes  # bound once: each ``int.from_bytes`` lookup builds a bound method


@dataclass(frozen=True)
class FlyoverPlacement:
    """A reservation bound to a concrete hop-field position on the path."""

    seg_index: int
    hf_index: int
    reservation: FlyoverReservation
    crossing: AsCrossing


class ReservationMismatch(ValueError):
    """A reservation does not match any unreserved AS crossing on the path."""


def match_reservations(
    path: ForwardingPath, reservations: list[FlyoverReservation]
) -> list[FlyoverPlacement]:
    """Bind reservations to path crossings; flyovers go on the first hop field.

    Raises :class:`ReservationMismatch` for a reservation whose
    (AS, ingress, egress) triple does not appear on the path or is already
    covered by an earlier reservation in the list.
    """
    crossings = as_crossings(path)
    taken: set[int] = set()
    placements: list[FlyoverPlacement] = []
    for reservation in reservations:
        for index, crossing in enumerate(crossings):
            if index in taken:
                continue
            if (
                crossing.isd_as == reservation.isd_as
                and crossing.ingress == reservation.ingress
                and crossing.egress == reservation.egress
            ):
                seg_index, hf_index = crossing.positions[0]
                placements.append(
                    FlyoverPlacement(seg_index, hf_index, reservation, crossing)
                )
                taken.add(index)
                break
        else:
            raise ReservationMismatch(f"no unreserved crossing matches {reservation!r}")
    return placements


class HummingbirdSource:
    """Generates reservation-protected packets for one path.

    Everything a packet shares with the next is fixed at construction in a
    header template: the path's shape tables and header length, every hop
    field's values, and each flyover's reservation fields with its
    ``ResStartOffset`` (the timestamp base is the source's for its
    lifetime).  A packet pays for its timestamp, its flyover tags, fresh
    flyover hop fields (routers rewrite them), a segment of its own where
    they sit, and fresh cursors; its plain hop fields and flyover-free
    segments are the template's, frozen and shared.
    """

    def __init__(
        self,
        src: ScionAddr,
        dst: ScionAddr,
        path: ForwardingPath,
        reservations: list[FlyoverReservation],
        clock: Clock,
        prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
    ) -> None:
        self.src = src
        self.dst = dst
        self.path = path
        self.clock = clock
        self.placements = match_reservations(path, reservations)
        self._allocator = TimestampAllocator(int(clock.now()))
        self._template = self._header_template()
        # Per segment, per hop field: the placement whose tag aggregates
        # there; None for a segment without a flyover, which every packet
        # shares with the template.
        self._tag_slots: list[list[int | None] | None] = [None] * len(path.segments)
        for slot, placement in enumerate(self.placements):
            slots = self._tag_slots[placement.seg_index]
            if slots is None:
                slots = self._tag_slots[placement.seg_index] = [None] * len(
                    path.segments[placement.seg_index].hopfields
                )
            slots[placement.hf_index] = slot
        # Held since redemption: one PRF keyed with A_K per placement.
        self._auth_key_prfs = [prf_factory(p.reservation.auth_key) for p in self.placements]
        flyovers = [
            self._template.segments[p.seg_index].hopfields[p.hf_index] for p in self.placements
        ]
        self._offsets = [hop.res_start_offset for hop in flyovers]
        # Per placement, the plain hop-field MAC each packet's tag XORs into
        # (Eq. 6), held as an int: one conversion a packet, not two.
        self._hopfield_macs = [_from_bytes(hop.mac, "big") for hop in flyovers]

    # -- public API ---------------------------------------------------------

    def header_bytes(self) -> int:
        """Total header size of packets from this source (fixed per path)."""
        return 4 * self._template.hdr_len

    def build_packet(self, payload: bytes, flow_id: int = 1) -> ScionPacket:
        """Generate one authenticated packet (the Table 4 pipeline)."""
        timestamp = self._allocator.allocate(self.clock.now())
        pkt_len = self._begin_headers(payload)
        macs = self._compute_flyover_macs(pkt_len, timestamp)
        path = self._assemble_hopfields(timestamp, macs)
        return self._attach_payload(path, payload, flow_id)

    # -- pipeline stages (microbenchmarked individually by perfmodel) -------

    def _begin_headers(self, payload: bytes) -> int:
        """Stage 1: header setup — yields the authenticated PktLen (Eq. 7d)."""
        return checked_pkt_len(len(payload), self._template.hdr_len)

    def _compute_flyover_macs(self, pkt_len: int, timestamp: PacketTimestamp) -> list[bytes]:
        """Stage 2: one flyover MAC per reserved AS hop (Eq. 7a), in placement order."""
        dst, millis, counter = self.dst.isd_as, timestamp.millis, timestamp.counter
        macs = []  # a loop, not a comprehension: one is a frame of its own before CPython 3.12
        for auth_key_prf, offset in zip(self._auth_key_prfs, self._offsets):
            macs.append(compute_flyover_mac(auth_key_prf, dst, pkt_len, offset, millis, counter))
        return macs

    def _assemble_hopfields(
        self, timestamp: PacketTimestamp, macs: list[bytes]
    ) -> HummingbirdPath:
        """Stage 3: fresh flyover hop fields off the template, aggregating
        MACs; plain hop fields and flyover-free segments are the template's."""
        hopfield_macs = self._hopfield_macs
        segments = []
        for segment, slots in zip(self._template.segments, self._tag_slots):
            if slots is None:
                segments.append(segment)
                continue
            hops = []
            for hop, slot in zip(segment.hopfields, slots):
                if slot is None:
                    hops.append(hop)
                else:
                    hops.append(
                        FlyoverHopFieldData(
                            hop.cons_ingress,
                            hop.cons_egress,
                            hop.exp_time,
                            (hopfield_macs[slot] ^ _from_bytes(macs[slot], "big")).to_bytes(
                                TAG_LEN, "big"
                            ),
                            hop.res_id,
                            hop.bw_cls,
                            hop.res_start_offset,
                            hop.res_duration,
                        )
                    )
            segments.append(
                SegmentInPath(
                    segment.cons_dir, segment.timestamp, segment.initial_segid, tuple(hops),
                    segment.ases,
                )
            )
        path = self._template.with_segments(segments)
        path.millis_timestamp = timestamp.millis
        path.counter = timestamp.counter
        return path

    def _attach_payload(
        self, path: HummingbirdPath, payload: bytes, flow_id: int
    ) -> ScionPacket:
        """Stage 4: wrap everything into the packet object."""
        # Positional, in field order: keyword arguments into the generated
        # __init__ cost ~0.5 µs a packet more (here and in the baseline source).
        return ScionPacket(
            self.src, self.dst, path, payload, PATH_TYPE_HUMMINGBIRD, NEXT_HDR_UDP, flow_id
        )

    # -- internals ----------------------------------------------------------

    def _header_template(self) -> HummingbirdPath:
        """The path every packet copies: flyover hop fields hold the plain
        hop-field MAC, which each packet aggregates with its own tag."""
        base = self._allocator.base
        segments = list(self.path.segments)
        for placement in self.placements:
            resinfo = placement.reservation.resinfo
            offset = base - resinfo.start
            if offset < 0:
                raise ValueError(
                    f"reservation {placement.reservation!r} starts after the "
                    f"source base timestamp {base}; wait until its start time"
                )
            if offset >= 1 << 16:
                raise ValueError(
                    f"reservation {placement.reservation!r} started more than "
                    "2^16 seconds before the base timestamp"
                )
            segment = segments[placement.seg_index]
            hops = list(segment.hopfields)
            hop = hops[placement.hf_index]
            hops[placement.hf_index] = FlyoverHopFieldData(
                cons_ingress=hop.cons_ingress,
                cons_egress=hop.cons_egress,
                exp_time=hop.exp_time,
                mac=hop.mac,
                res_id=resinfo.res_id,
                bw_cls=resinfo.bw_cls,
                res_start_offset=offset,
                res_duration=resinfo.duration,
            )
            segments[placement.seg_index] = replace(segment, hopfields=tuple(hops))
        return HummingbirdPath(segments=segments, base_timestamp=base)


class ScionBestEffortSource:
    """Baseline source: plain SCION packets over the same path (dashed lines)."""

    def __init__(self, src: ScionAddr, dst: ScionAddr, path: ForwardingPath) -> None:
        self.src = src
        self.dst = dst
        self.path = path
        self._template = PacketPath.from_forwarding_path(path)

    def build_packet(self, payload: bytes, flow_id: int = 1) -> ScionPacket:
        """One packet: its own segments list over the path's shared, frozen
        segments, and fresh cursors; no hop field is copied."""
        template = self._template
        path = template.with_segments(list(template.segments))
        return ScionPacket(
            self.src, self.dst, path, payload, PATH_TYPE_SCION, NEXT_HDR_UDP, flow_id
        )
