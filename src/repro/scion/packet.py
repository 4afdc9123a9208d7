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

    A packet owns only what routers write: its ``segments`` list, its
    ``segids`` and its cursors.  ``segids`` holds the *current* SegID
    accumulator per segment; routers mutate it as the packet travels.
    ``curr_hf`` is a logical hop-field index across all segments
    (serializers convert to the wire encoding of the respective path type).
    The segments themselves are frozen and shared with the packet's source
    and the :class:`~repro.scion.paths.ForwardingPath` they came from; a
    packet that carries a hop field of its own (a flyover, whose AggMAC a
    router rewrites) holds its own segment at that position.

    The shape of a path — how many hop fields each segment has, and of which
    kind — is fixed at construction, as SegLen and HdrLen fix it on the wire:
    ``num_hopfields``, ``hdr_len`` and ``positions`` (the table behind
    :meth:`locate`, one ``(segment index, local index)`` per hop field, which
    the routers index themselves) are computed once, so a segment may be
    replaced by one of the same shape but hop fields not added, removed or
    swapped for another kind.  :meth:`with_segments` makes a new packet's
    path that shares them.
    """

    segments: list[SegmentInPath]
    segids: list[int] = field(default_factory=list)
    curr_inf: int = 0
    curr_hf: int = 0

    def __post_init__(self) -> None:
        if not self.segids:
            self.segids = [segment.initial_segid for segment in self.segments]
        self.positions = tuple(
            (seg_index, local)
            for seg_index, segment in enumerate(self.segments)
            for local in range(len(segment.hopfields))
        )
        self.num_hopfields = len(self.positions)
        # HdrLen: the whole header in 4-byte units (Eq. 7d's PktLen needs it)
        self.hdr_len = (
            COMMON_HDR_LEN + ADDR_HDR_LEN + 4 + 8 * len(self.segments) + 12 * self.num_hopfields
        ) // 4

    @classmethod
    def from_forwarding_path(cls, path: ForwardingPath) -> "PacketPath":
        return cls(segments=list(path.segments))

    def with_segments(self, segments: list[SegmentInPath]) -> "PacketPath":
        """A new path of this one's shape over ``segments``, which it owns.

        What a source's header template hands each packet: the shape tables
        are shared with this path, SegIDs and cursors start over.  Each
        segment must have this path's hop-field count and kinds at its
        position.
        """
        path = object.__new__(type(self))
        path.__dict__.update(self.__dict__)
        path.segments = segments
        # A loop, not a comprehension: one is a frame of its own on CPython
        # 3.11, and a source builds a path for every packet it sends.
        path.segids = []
        for segment in segments:
            path.segids.append(segment.initial_segid)
        path.curr_inf = path.curr_hf = 0
        return path

    def locate(self, global_hf: int) -> tuple[int, int]:
        """Map a global hop-field index to (segment index, local index)."""
        if not 0 <= global_hf < self.num_hopfields:
            raise IndexError(f"hop-field index {global_hf} out of range")
        return self.positions[global_hf]

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
        return 4 * self.hdr_len_units()

    def hdr_len_units(self) -> int:
        """``HdrLen``: the header in 4-byte units, fixed by the path's shape."""
        return self.path.hdr_len

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


_PATH_CODECS: dict[int, PathCodec] = {}


def register_path_codec(path_type: int, codec: PathCodec) -> None:
    _PATH_CODECS[path_type] = codec


# ---------------------------------------------------------------------------
# Standard SCION path-type codec (path type 1)
# ---------------------------------------------------------------------------


def _encode_standard_path(path: PacketPath) -> bytes:
    if len(path.segments) > 3:
        raise ValueError("at most three segments")
    seg_lens = [len(segment.hopfields) for segment in path.segments]
    seg_lens += [0] * (3 - len(seg_lens))
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
                hopfields=tuple(hopfields),
                ases=(),
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


register_path_codec(
    PATH_TYPE_SCION,
    PathCodec(encode=_encode_standard_path, decode=_decode_standard_path),
)


# ---------------------------------------------------------------------------
# Full packet encode / decode
# ---------------------------------------------------------------------------


def encode_packet(packet: ScionPacket) -> bytes:
    """Serialize a packet to its wire representation."""
    codec = _PATH_CODECS.get(packet.path_type)
    if codec is None:
        raise ValueError(f"no codec registered for path type {packet.path_type}")
    path_bytes = codec.encode(packet.path)
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
    codec = _PATH_CODECS.get(path_type)
    if codec is None:
        raise ValueError(f"no codec registered for path type {path_type}")
    path = codec.decode(data[offset:path_end])
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
