"""SCION packet headers: common header, address header, standard path type.

The wire layout follows the SCION header specification; the Hummingbird path
type (Appendix A) plugs in through the path-codec registry defined here.

Byte layout summary::

    CommonHdr (12 B)   Version|QoS|FlowID, NextHdr|HdrLen|PayloadLen,
                       PathType|DT/DL/ST/SL|RSV
    AddressHdr (24 B)  DstISD|DstAS, SrcISD|SrcAS, DstHost(4), SrcHost(4)
    Path (variable)    per path type

``HdrLen`` counts 4-byte units; the Hummingbird MAC input uses
``PktLen = PayloadLen + 4 * HdrLen`` (Eq. 7d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.paths import ForwardingPath, HopFieldData, SegmentInPath
from repro.wire.bitfields import BitPacker, BitUnpacker

PATH_TYPE_EMPTY = 0
PATH_TYPE_SCION = 1
PATH_TYPE_HUMMINGBIRD = 5

COMMON_HDR_LEN = 12
ADDR_HDR_LEN = 24
NEXT_HDR_UDP = 17


@dataclass
class PacketPath:
    """Runtime path state inside a packet: segments plus cursors.

    ``segids`` holds the *current* SegID accumulator per segment; routers
    mutate it as the packet travels.  ``curr_hf`` is a logical hop-field
    index across all segments (serializers convert to the wire encoding of
    the respective path type).

    The shape of a path — how many hop fields each segment has, and of which
    kind — is fixed at construction, as SegLen and HdrLen fix it on the wire:
    ``num_hopfields`` and the table behind :meth:`locate` are computed once,
    so hop fields may be rewritten in place but not added, removed or swapped
    for another kind.
    """

    segments: list[SegmentInPath]
    segids: list[int] = field(default_factory=list)
    curr_inf: int = 0
    curr_hf: int = 0

    def __post_init__(self) -> None:
        if not self.segids:
            self.segids = [segment.initial_segid for segment in self.segments]
        self._positions = [
            (seg_index, local)
            for seg_index, segment in enumerate(self.segments)
            for local in range(len(segment.hopfields))
        ]
        self.num_hopfields = len(self._positions)

    @classmethod
    def from_forwarding_path(cls, path: ForwardingPath) -> "PacketPath":
        copied = path.copy()
        return cls(segments=copied.segments)

    def seg_lens(self) -> tuple[int, int, int]:
        lens = [len(segment.hopfields) for segment in self.segments]
        while len(lens) < 3:
            lens.append(0)
        return lens[0], lens[1], lens[2]

    def locate(self, global_hf: int) -> tuple[int, int]:
        """Map a global hop-field index to (segment index, local index)."""
        if not 0 <= global_hf < self.num_hopfields:
            raise IndexError(f"hop-field index {global_hf} out of range")
        return self._positions[global_hf]

    def current(self) -> tuple[int, int, SegmentInPath, HopFieldData]:
        seg_index, local = self.locate(self.curr_hf)
        segment = self.segments[seg_index]
        return seg_index, local, segment, segment.hopfields[local]

    def at_end(self) -> bool:
        return self.curr_hf >= self.num_hopfields


@dataclass
class ScionPacket:
    """A parsed SCION packet (any path type)."""

    src: ScionAddr
    dst: ScionAddr
    path: PacketPath
    payload: bytes
    path_type: int = PATH_TYPE_SCION
    next_hdr: int = NEXT_HDR_UDP
    flow_id: int = 1
    qos: int = 0

    def header_bytes(self) -> int:
        """Total header length in bytes (common + address + path)."""
        return COMMON_HDR_LEN + ADDR_HDR_LEN + path_codec(self.path_type).size(self.path)

    def hdr_len_units(self) -> int:
        total = self.header_bytes()
        if total % 4 != 0:
            raise ValueError(f"header length {total} not a multiple of 4")
        return total // 4

    def packet_length(self) -> int:
        """``PktLen`` as authenticated by the flyover MAC (Eq. 7d)."""
        return len(self.payload) + self.header_bytes()


# ---------------------------------------------------------------------------
# Path codec registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathCodec:
    encode: Callable[[PacketPath], bytes]
    decode: Callable[[bytes], PacketPath]
    size: Callable[[PacketPath], int]


_PATH_CODECS: dict[int, PathCodec] = {}


def register_path_codec(path_type: int, codec: PathCodec) -> None:
    _PATH_CODECS[path_type] = codec


def path_codec(path_type: int) -> PathCodec:
    try:
        return _PATH_CODECS[path_type]
    except KeyError:
        raise ValueError(f"no codec registered for path type {path_type}") from None


# ---------------------------------------------------------------------------
# Standard SCION path-type codec (path type 1)
# ---------------------------------------------------------------------------


def _encode_standard_path(path: PacketPath) -> bytes:
    if len(path.segments) > 3:
        raise ValueError("at most three segments")
    seg_lens = path.seg_lens()
    packer = BitPacker()
    packer.put(path.curr_inf, 2)
    packer.put(path.curr_hf, 6)
    packer.put(0, 6)
    for seg_len in seg_lens:
        packer.put(seg_len, 6)
    out = bytearray(packer.to_bytes())
    for seg_index, segment in enumerate(path.segments):
        info = BitPacker()
        info.put(0, 6)  # reserved
        info.put(0, 1)  # peering flag (not modelled)
        info.put(1 if segment.cons_dir else 0, 1)
        info.put(0, 8)  # RSV
        info.put(path.segids[seg_index], 16)
        out += info.to_bytes()
        out += segment.timestamp.to_bytes(4, "big")
    for segment in path.segments:
        for hop in segment.hopfields:
            out += _encode_standard_hopfield(hop)
    return bytes(out)


def _encode_standard_hopfield(hop: HopFieldData) -> bytes:
    packer = BitPacker()
    packer.put(0, 6)  # r (first bit doubles as the flyover bit, 0 here)
    packer.put(0, 1)  # I router alert
    packer.put(0, 1)  # E router alert
    packer.put(hop.exp_time, 8)
    packer.put(hop.cons_ingress, 16)
    packer.put(hop.cons_egress, 16)
    head = packer.to_bytes()
    if len(hop.mac) != 6:
        raise ValueError("hop-field MAC must be 6 bytes")
    return head + hop.mac


def _decode_standard_path(data: bytes) -> PacketPath:
    if len(data) < 4:
        raise ValueError("truncated path meta header")
    meta = BitUnpacker(data[:4])
    curr_inf = meta.take(2)
    curr_hf = meta.take(6)
    meta.take(6)
    seg_lens = [meta.take(6) for _ in range(3)]
    num_inf = sum(1 for seg_len in seg_lens if seg_len > 0)
    for i in range(num_inf, 3):
        if seg_lens[i] > 0:
            raise ValueError("segment length after an empty segment")
    offset = 4
    infos: list[tuple[bool, int, int]] = []
    for _ in range(num_inf):
        info = BitUnpacker(data[offset : offset + 4])
        info.take(6)
        info.take(1)  # peering
        cons_dir = bool(info.take(1))
        info.take(8)
        segid = info.take(16)
        timestamp = int.from_bytes(data[offset + 4 : offset + 8], "big")
        infos.append((cons_dir, segid, timestamp))
        offset += 8
    segments: list[SegmentInPath] = []
    segids: list[int] = []
    for seg_index in range(num_inf):
        cons_dir, segid, timestamp = infos[seg_index]
        hopfields = []
        for _ in range(seg_lens[seg_index]):
            hopfields.append(_decode_standard_hopfield(data[offset : offset + 12]))
            offset += 12
        segments.append(
            SegmentInPath(
                cons_dir=cons_dir,
                timestamp=timestamp,
                initial_segid=segid,
                hopfields=hopfields,
                ases=[],
            )
        )
        segids.append(segid)
    if offset != len(data):
        raise ValueError(f"trailing {len(data) - offset} bytes after path")
    return PacketPath(segments=segments, segids=segids, curr_inf=curr_inf, curr_hf=curr_hf)


def _decode_standard_hopfield(data: bytes) -> HopFieldData:
    if len(data) != 12:
        raise ValueError("standard hop field must be 12 bytes")
    fields = BitUnpacker(data[:6])
    fields.take(6)
    fields.take(1)
    fields.take(1)
    exp_time = fields.take(8)
    cons_ingress = fields.take(16)
    cons_egress = fields.take(16)
    return HopFieldData(cons_ingress, cons_egress, exp_time, data[6:12])


def _standard_path_size(path: PacketPath) -> int:
    return 4 + 8 * len(path.segments) + 12 * path.num_hopfields


register_path_codec(
    PATH_TYPE_SCION,
    PathCodec(
        encode=_encode_standard_path,
        decode=_decode_standard_path,
        size=_standard_path_size,
    ),
)


# ---------------------------------------------------------------------------
# Full packet encode / decode
# ---------------------------------------------------------------------------


def encode_packet(packet: ScionPacket) -> bytes:
    """Serialize a packet to its wire representation."""
    path_bytes = path_codec(packet.path_type).encode(packet.path)
    hdr_len = (COMMON_HDR_LEN + ADDR_HDR_LEN + len(path_bytes)) // 4
    if hdr_len >= 1 << 8:
        raise ValueError("header too long for 8-bit HdrLen")
    if len(packet.payload) >= 1 << 16:
        raise ValueError("payload too long for 16-bit PayloadLen")

    common = BitPacker()
    common.put(0, 4)  # version
    common.put(packet.qos, 8)
    common.put(packet.flow_id, 20)
    common.put(packet.next_hdr, 8)
    common.put(hdr_len, 8)
    common.put(len(packet.payload), 16)
    common.put(packet.path_type, 8)
    common.put(0, 2)  # DT
    common.put(0, 2)  # DL: 4-byte host addresses
    common.put(0, 2)  # ST
    common.put(0, 2)  # SL
    common.put(0, 16)  # RSV

    address = (
        packet.dst.isd_as.pack()
        + packet.src.isd_as.pack()
        + packet.dst.host.pack()
        + packet.src.host.pack()
    )
    return common.to_bytes() + address + path_bytes + packet.payload


def decode_packet(data: bytes) -> ScionPacket:
    """Parse a wire-format packet produced by :func:`encode_packet`."""
    if len(data) < COMMON_HDR_LEN + ADDR_HDR_LEN:
        raise ValueError("packet shorter than fixed headers")
    common = BitUnpacker(data[:COMMON_HDR_LEN])
    version = common.take(4)
    if version != 0:
        raise ValueError(f"unsupported SCION version {version}")
    qos = common.take(8)
    flow_id = common.take(20)
    next_hdr = common.take(8)
    hdr_len = common.take(8)
    payload_len = common.take(16)
    path_type = common.take(8)
    common.take(8)  # DT/DL/ST/SL
    common.take(16)  # RSV

    offset = COMMON_HDR_LEN
    dst_isd_as = IsdAs.unpack(data[offset : offset + 8])
    src_isd_as = IsdAs.unpack(data[offset + 8 : offset + 16])
    dst_host = HostAddr.unpack(data[offset + 16 : offset + 20])
    src_host = HostAddr.unpack(data[offset + 20 : offset + 24])
    offset += ADDR_HDR_LEN

    path_end = hdr_len * 4
    if path_end > len(data):
        raise ValueError("HdrLen exceeds packet size")
    path = path_codec(path_type).decode(data[offset:path_end])
    payload = data[path_end:]
    if len(payload) != payload_len:
        raise ValueError(f"PayloadLen {payload_len} does not match {len(payload)} bytes")
    return ScionPacket(
        src=ScionAddr(src_isd_as, src_host),
        dst=ScionAddr(dst_isd_as, dst_host),
        path=path,
        payload=payload,
        path_type=path_type,
        next_hdr=next_hdr,
        flow_id=flow_id,
        qos=qos,
    )
