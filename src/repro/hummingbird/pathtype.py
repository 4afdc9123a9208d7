"""The Hummingbird SCION path type (Appendix A): byte-exact header codec.

Layout (Fig. 6)::

    PathMetaHdr (12 B, Fig. 7)
    InfoField   (8 B each, up to 3, Fig. 8 — unchanged from SCION)
    HopField (12 B, Fig. 9) / FlyoverHopField (20 B, Fig. 10) mix

Changes relative to the standard SCION path type:

* ``CurrHF`` is an 8-bit index in **4-byte increments** (plain hop fields
  advance it by 3, flyover hop fields by 5);
* ``SegLen`` values are 7-bit and count the segment's hop-field bytes / 4;
* the meta header carries ``BaseTimestamp`` (32-bit seconds),
  ``MillisTimestamp`` (16-bit offset) and ``Counter`` (16-bit uniqueness);
* the first hop-field bit is the flyover flag ``F``.

The in-memory representation extends the generic :class:`PacketPath` with
the timestamp triple; flyover hop fields extend :class:`HopFieldData` with
the reservation fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scion.packet import (
    PATH_TYPE_HUMMINGBIRD,
    PacketPath,
    PathCodec,
    register_path_codec,
)
from repro.scion.paths import HopFieldData, SegmentInPath
from repro.wire.bitfields import BitPacker, BitUnpacker

META_HDR_LEN = 12
INFO_FIELD_LEN = 8
HOPFIELD_LEN = 12
FLYOVER_HOPFIELD_LEN = 20
HOPFIELD_UNITS = HOPFIELD_LEN // 4  # CurrHF advances by 3
FLYOVER_UNITS = FLYOVER_HOPFIELD_LEN // 4  # ... or by 5


@dataclass
class FlyoverHopFieldData(HopFieldData):
    """A hop field carrying a flyover reservation (``mac`` holds the AggMAC)."""

    res_id: int = 0
    bw_cls: int = 0
    res_start_offset: int = 0
    res_duration: int = 0

    def copy(self) -> "FlyoverHopFieldData":
        return FlyoverHopFieldData(
            self.cons_ingress,
            self.cons_egress,
            self.exp_time,
            self.mac,
            self.res_id,
            self.bw_cls,
            self.res_start_offset,
            self.res_duration,
        )


def is_flyover(hop: HopFieldData) -> bool:
    """The F bit: does this hop field carry a reservation?"""
    return isinstance(hop, FlyoverHopFieldData)


def hopfield_units(hop: HopFieldData) -> int:
    return FLYOVER_UNITS if is_flyover(hop) else HOPFIELD_UNITS


@dataclass
class HummingbirdPath(PacketPath):
    """Packet path state for the Hummingbird path type.

    Adds the per-packet timestamp triple of the PathMetaHdr.  ``curr_hf``
    remains a logical hop-field index in memory; the codec converts to the
    wire's 4-byte-increment encoding through a table of the 4-byte units
    before each hop field, fixed at construction with the rest of the shape.
    """

    base_timestamp: int = 0
    millis_timestamp: int = 0
    counter: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        units_before = [0]
        for segment in self.segments:
            for hop in segment.hopfields:
                units_before.append(units_before[-1] + hopfield_units(hop))
        self._units_before = tuple(units_before)
        self.hop_units = units_before[-1]  # all hop fields together

    def seg_len_units(self) -> tuple[int, int, int]:
        """Per-segment hop-field byte length divided by 4 (7-bit fields)."""
        lens = [
            sum(hopfield_units(hop) for hop in segment.hopfields)
            for segment in self.segments
        ]
        while len(lens) < 3:
            lens.append(0)
        return lens[0], lens[1], lens[2]

    def curr_hf_units(self) -> int:
        """Wire encoding of CurrHF: 4-byte units before the current hop field."""
        if not 0 <= self.curr_hf <= self.num_hopfields:
            raise ValueError(f"curr_hf {self.curr_hf} beyond end of path")
        return self._units_before[self.curr_hf]

    def flyover_count(self) -> int:
        return sum(
            1
            for segment in self.segments
            for hop in segment.hopfields
            if is_flyover(hop)
        )


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


def encode_hummingbird_path(path: PacketPath) -> bytes:
    if not isinstance(path, HummingbirdPath):
        raise TypeError("hummingbird codec requires a HummingbirdPath")
    if len(path.segments) > 3:
        raise ValueError("at most three segments")
    seg_lens = path.seg_len_units()
    for seg_len in seg_lens:
        if seg_len >= 1 << 7:
            raise ValueError(f"segment length {seg_len} overflows 7 bits")
    curr_units = path.curr_hf_units()
    if curr_units >= 1 << 8:
        raise ValueError("CurrHF overflows 8 bits")

    meta = BitPacker()
    meta.put(path.curr_inf, 2)
    meta.put(curr_units, 8)
    meta.put(0, 1)  # r
    meta.put(seg_lens[0], 7)
    meta.put(seg_lens[1], 7)
    meta.put(seg_lens[2], 7)
    out = bytearray(meta.to_bytes())
    out += path.base_timestamp.to_bytes(4, "big")
    out += path.millis_timestamp.to_bytes(2, "big")
    out += path.counter.to_bytes(2, "big")

    for seg_index, segment in enumerate(path.segments):
        info = BitPacker()
        info.put(0, 6)
        info.put(0, 1)  # peering
        info.put(1 if segment.cons_dir else 0, 1)
        info.put(0, 8)
        info.put(path.segids[seg_index], 16)
        out += info.to_bytes()
        out += segment.timestamp.to_bytes(4, "big")

    for segment in path.segments:
        for hop in segment.hopfields:
            out += _encode_hopfield(hop)
    return bytes(out)


def _encode_hopfield(hop: HopFieldData) -> bytes:
    packer = BitPacker()
    packer.put(1 if is_flyover(hop) else 0, 1)  # F
    packer.put(0, 5)  # r
    packer.put(0, 1)  # I
    packer.put(0, 1)  # E
    packer.put(hop.exp_time, 8)
    packer.put(hop.cons_ingress, 16)
    packer.put(hop.cons_egress, 16)
    head = packer.to_bytes()
    if len(hop.mac) != 6:
        raise ValueError("hop-field MAC/AggMAC must be 6 bytes")
    body = head + hop.mac
    if not is_flyover(hop):
        return body
    tail = BitPacker()
    tail.put(hop.res_id, 22)
    tail.put(hop.bw_cls, 10)
    tail.put(hop.res_start_offset, 16)
    tail.put(hop.res_duration, 16)
    return body + tail.to_bytes()


def decode_hummingbird_path(data: bytes) -> PacketPath:
    if len(data) < META_HDR_LEN:
        raise ValueError("truncated Hummingbird path meta header")
    meta = BitUnpacker(data[:4])
    curr_inf = meta.take(2)
    curr_units = meta.take(8)
    meta.take(1)
    seg_lens = [meta.take(7) for _ in range(3)]
    num_inf = sum(1 for seg_len in seg_lens if seg_len > 0)
    for i in range(num_inf, 3):
        if seg_lens[i] > 0:
            raise ValueError("segment length after an empty segment")
    base_timestamp = int.from_bytes(data[4:8], "big")
    millis_timestamp = int.from_bytes(data[8:10], "big")
    counter = int.from_bytes(data[10:12], "big")

    offset = META_HDR_LEN
    infos: list[tuple[bool, int, int]] = []
    for _ in range(num_inf):
        info = BitUnpacker(data[offset : offset + 4])
        info.take(6)
        info.take(1)
        cons_dir = bool(info.take(1))
        info.take(8)
        segid = info.take(16)
        timestamp = int.from_bytes(data[offset + 4 : offset + 8], "big")
        infos.append((cons_dir, segid, timestamp))
        offset += INFO_FIELD_LEN

    segments: list[SegmentInPath] = []
    segids: list[int] = []
    units_seen = 0
    curr_hf_logical: int | None = 0 if curr_units == 0 else None
    hopfields_total = 0
    for seg_index in range(num_inf):
        cons_dir, segid, timestamp = infos[seg_index]
        remaining_units = seg_lens[seg_index]
        hopfields: list[HopFieldData] = []
        while remaining_units > 0:
            if offset >= len(data):
                raise ValueError("SegLen claims hop fields beyond the packet")
            flyover_bit = data[offset] >> 7
            length = FLYOVER_HOPFIELD_LEN if flyover_bit else HOPFIELD_LEN
            if offset + length > len(data):
                raise ValueError("truncated hop field")
            hop = _decode_hopfield(data[offset : offset + length], bool(flyover_bit))
            hopfields.append(hop)
            offset += length
            units = length // 4
            remaining_units -= units
            units_seen += units
            hopfields_total += 1
            if curr_hf_logical is None and units_seen == curr_units:
                curr_hf_logical = hopfields_total
        if remaining_units < 0:
            raise ValueError("hop fields overrun the declared SegLen")
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
    if curr_hf_logical is None:
        raise ValueError(f"CurrHF={curr_units} does not point at a hop-field start")
    return HummingbirdPath(
        segments=segments,
        segids=segids,
        curr_inf=curr_inf,
        curr_hf=curr_hf_logical,
        base_timestamp=base_timestamp,
        millis_timestamp=millis_timestamp,
        counter=counter,
    )


def _decode_hopfield(data: bytes, flyover: bool) -> HopFieldData:
    fields = BitUnpacker(data[:6])
    flyover_bit = fields.take(1)
    if bool(flyover_bit) != flyover:
        raise ValueError("inconsistent flyover bit")
    fields.take(5)
    fields.take(1)
    fields.take(1)
    exp_time = fields.take(8)
    cons_ingress = fields.take(16)
    cons_egress = fields.take(16)
    mac = data[6:12]
    if not flyover:
        return HopFieldData(cons_ingress, cons_egress, exp_time, mac)
    tail = BitUnpacker(data[12:20])
    res_id = tail.take(22)
    bw_cls = tail.take(10)
    res_start_offset = tail.take(16)
    res_duration = tail.take(16)
    return FlyoverHopFieldData(
        cons_ingress,
        cons_egress,
        exp_time,
        mac,
        res_id,
        bw_cls,
        res_start_offset,
        res_duration,
    )


def hummingbird_path_size(path: PacketPath) -> int:
    if not isinstance(path, HummingbirdPath):
        raise TypeError("hummingbird codec requires a HummingbirdPath")
    return META_HDR_LEN + INFO_FIELD_LEN * len(path.segments) + 4 * path.hop_units


register_path_codec(
    PATH_TYPE_HUMMINGBIRD,
    PathCodec(
        encode=encode_hummingbird_path,
        decode=decode_hummingbird_path,
        size=hummingbird_path_size,
    ),
)
