"""Source-side packet generation (§4.3, Table 4 pipeline).

A :class:`HummingbirdSource` owns a forwarding path, the flyover
reservations the host has redeemed for (some of) the path's AS crossings,
and a timestamp allocator.  ``build_packet`` performs the per-packet work
the paper benchmarks at the source gateway:

1. add Ethernet/IP/SCION header fields (here: compute header sizes and the
   authenticated ``PktLen``),
2. compute the flyover MAC for every reserved hop (Eq. 7a),
3. assemble the hop fields (plain and flyover, AggMAC aggregation),
4. attach the payload.

Reservations are matched to AS crossings by (AS, traversal ingress,
traversal egress); hops without a matching reservation stay plain hop
fields — partial paths are first-class (§3.1, "Independent & Composable
Flyover Reservations").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Clock
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.hummingbird.mac import aggregate_mac, checked_pkt_len, compute_flyover_mac
from repro.hummingbird.pathtype import (
    FLYOVER_HOPFIELD_LEN,
    HOPFIELD_LEN,
    INFO_FIELD_LEN,
    META_HDR_LEN,
    FlyoverHopFieldData,
    HummingbirdPath,
)
from repro.hummingbird.reservation import FlyoverReservation
from repro.scion.addresses import ScionAddr
from repro.scion.packet import (
    ADDR_HDR_LEN,
    COMMON_HDR_LEN,
    PATH_TYPE_HUMMINGBIRD,
    PATH_TYPE_SCION,
    PacketPath,
    ScionPacket,
)
from repro.scion.paths import AsCrossing, ForwardingPath, as_crossings
from repro.wire.timestamps import PacketTimestamp, TimestampAllocator


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
    """Generates reservation-protected packets for one path."""

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
        self._validate_offsets()
        self._placement_index = {
            (p.seg_index, p.hf_index): p for p in self.placements
        }
        # Held since redemption: one PRF keyed with A_K per placement, and the
        # header size, which only depends on the path and the placements.
        self._auth_key_prfs = [prf_factory(p.reservation.auth_key) for p in self.placements]
        self._header_bytes = self._count_header_bytes()

    # -- public API ---------------------------------------------------------

    def header_bytes(self) -> int:
        """Total header size of packets from this source (fixed per path)."""
        return self._header_bytes

    def _count_header_bytes(self) -> int:
        path_bytes = META_HDR_LEN + INFO_FIELD_LEN * len(self.path.segments)
        for seg_index, segment in enumerate(self.path.segments):
            for hf_index in range(len(segment.hopfields)):
                if (seg_index, hf_index) in self._placement_index:
                    path_bytes += FLYOVER_HOPFIELD_LEN
                else:
                    path_bytes += HOPFIELD_LEN
        return COMMON_HDR_LEN + ADDR_HDR_LEN + path_bytes

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
        return checked_pkt_len(len(payload), self._header_bytes // 4)

    def _compute_flyover_macs(
        self, pkt_len: int, timestamp: PacketTimestamp
    ) -> dict[tuple[int, int], bytes]:
        """Stage 2: one flyover MAC per reserved AS hop (Eq. 7a)."""
        macs: dict[tuple[int, int], bytes] = {}
        for placement, auth_key_prf in zip(self.placements, self._auth_key_prfs):
            resinfo = placement.reservation.resinfo
            offset = timestamp.base - resinfo.start
            macs[(placement.seg_index, placement.hf_index)] = compute_flyover_mac(
                auth_key_prf,
                self.dst.isd_as,
                pkt_len,
                offset,
                timestamp.millis,
                timestamp.counter,
            )
        return macs

    def _assemble_hopfields(
        self, timestamp: PacketTimestamp, macs: dict[tuple[int, int], bytes]
    ) -> HummingbirdPath:
        """Stage 3: build the path header, aggregating MACs on flyover hops."""
        segments = []
        for seg_index, segment in enumerate(self.path.segments):
            hopfields = []
            for hf_index, hop in enumerate(segment.hopfields):
                placement = self._placement_index.get((seg_index, hf_index))
                if placement is None:
                    hopfields.append(hop.copy())
                    continue
                resinfo = placement.reservation.resinfo
                agg = aggregate_mac(hop.mac, macs[(seg_index, hf_index)])
                hopfields.append(
                    FlyoverHopFieldData(
                        cons_ingress=hop.cons_ingress,
                        cons_egress=hop.cons_egress,
                        exp_time=hop.exp_time,
                        mac=agg,
                        res_id=resinfo.res_id,
                        bw_cls=resinfo.bw_cls,
                        res_start_offset=timestamp.base - resinfo.start,
                        res_duration=resinfo.duration,
                    )
                )
            segments.append(
                type(segment)(
                    cons_dir=segment.cons_dir,
                    timestamp=segment.timestamp,
                    initial_segid=segment.initial_segid,
                    hopfields=hopfields,
                    ases=list(segment.ases),
                )
            )
        return HummingbirdPath(
            segments=segments,
            base_timestamp=timestamp.base,
            millis_timestamp=timestamp.millis,
            counter=timestamp.counter,
        )

    def _attach_payload(
        self, path: HummingbirdPath, payload: bytes, flow_id: int
    ) -> ScionPacket:
        """Stage 4: wrap everything into the packet object."""
        return ScionPacket(
            src=self.src,
            dst=self.dst,
            path=path,
            payload=payload,
            path_type=PATH_TYPE_HUMMINGBIRD,
            flow_id=flow_id,
        )

    # -- internals ----------------------------------------------------------

    def _validate_offsets(self) -> None:
        base = self._allocator.base
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


class ScionBestEffortSource:
    """Baseline source: plain SCION packets over the same path (dashed lines)."""

    def __init__(self, src: ScionAddr, dst: ScionAddr, path: ForwardingPath) -> None:
        self.src = src
        self.dst = dst
        self.path = path

    def build_packet(self, payload: bytes, flow_id: int = 1) -> ScionPacket:
        return ScionPacket(
            src=self.src,
            dst=self.dst,
            path=PacketPath.from_forwarding_path(self.path),
            payload=payload,
            path_type=PATH_TYPE_SCION,
            flow_id=flow_id,
        )
