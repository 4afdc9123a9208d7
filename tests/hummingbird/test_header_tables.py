"""What a path fixes at construction (hop-field positions, counts, unit
offsets) against a brute-force scan of its object graph, and the three
one-block PRF input packers, and the MAC functions that pack the same
blocks, against their field ranges."""

import re
import struct
from copy import deepcopy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import T0

from repro.crypto.keys import derive_auth_key, pack_resinfo_input
from repro.crypto.prf import Blake2Prf
from repro.hummingbird.mac import compute_flyover_mac, pack_flyover_mac_input
from repro.hummingbird.pathtype import (
    FLYOVER_HOPFIELD_LEN,
    HOPFIELD_LEN,
    INFO_FIELD_LEN,
    META_HDR_LEN,
    FlyoverHopFieldData,
    HummingbirdPath,
    is_flyover,
)
from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.hopfields import compute_hopfield_mac, pack_hopfield_mac_input
from repro.scion.packet import (
    ADDR_HDR_LEN,
    COMMON_HDR_LEN,
    PATH_TYPE_HUMMINGBIRD,
    PATH_TYPE_SCION,
    PacketPath,
    ScionPacket,
    decode_packet,
    encode_packet,
)
from repro.scion.paths import HopFieldData, SegmentInPath

SRC = ScionAddr(IsdAs(1, 10), HostAddr.from_string("10.0.0.1"))
DST = ScionAddr(IsdAs(1, 20), HostAddr.from_string("10.0.0.2"))

# Per segment, per hop field: is it a flyover?
SHAPES = st.lists(st.lists(st.booleans(), min_size=1, max_size=4), min_size=1, max_size=3)


def _segments(shape, flyovers: bool) -> list[SegmentInPath]:
    plain = HopFieldData(1, 2, 63, bytes(6))
    flyover = FlyoverHopFieldData(1, 2, 63, bytes(6), 5, 10, 0, 60)
    return [
        SegmentInPath(
            cons_dir=True,
            timestamp=T0,
            initial_segid=seg_index,
            hopfields=tuple(deepcopy(flyover if fly and flyovers else plain) for fly in segment),
            ases=(),
        )
        for seg_index, segment in enumerate(shape)
    ]


def _packet(shape, flyovers: bool, payload: bytes = b"payload") -> ScionPacket:
    if flyovers:
        path = HummingbirdPath(segments=_segments(shape, True), base_timestamp=T0)
        return ScionPacket(SRC, DST, path, payload, path_type=PATH_TYPE_HUMMINGBIRD)
    path = PacketPath(segments=_segments(shape, False))
    return ScionPacket(SRC, DST, path, payload, path_type=PATH_TYPE_SCION)


def _scanned_positions(path: PacketPath) -> list[tuple[int, int]]:
    return [
        (seg_index, local)
        for seg_index, segment in enumerate(path.segments)
        for local, _ in enumerate(segment.hopfields)
    ]


def _scanned_header_bytes(packet: ScionPacket) -> int:
    hops = [hop for segment in packet.path.segments for hop in segment.hopfields]
    if packet.path_type == PATH_TYPE_SCION:
        path_bytes = 4 + 8 * len(packet.path.segments) + 12 * len(hops)
    else:
        path_bytes = META_HDR_LEN + INFO_FIELD_LEN * len(packet.path.segments) + sum(
            FLYOVER_HOPFIELD_LEN if is_flyover(hop) else HOPFIELD_LEN for hop in hops
        )
    return COMMON_HDR_LEN + ADDR_HDR_LEN + path_bytes


def _assert_tables_match_a_scan(packet: ScionPacket) -> None:
    path = packet.path
    positions = _scanned_positions(path)
    assert path.num_hopfields == len(positions)
    assert [path.locate(index) for index in range(len(positions))] == positions
    for index in (-1, -len(positions), len(positions), len(positions) + 1):
        with pytest.raises(IndexError):
            path.locate(index)
    for cursor, (seg_index, local) in enumerate(positions):
        path.curr_hf = cursor
        assert not path.at_end()
        hop = path.segments[seg_index].hopfields[local]
        assert path.current() == (seg_index, local, path.segments[seg_index], hop)
        if isinstance(path, HummingbirdPath):
            before = [h for s in path.segments for h in s.hopfields][:cursor]
            assert path.curr_hf_units() == sum(5 if is_flyover(h) else 3 for h in before)
    path.curr_hf = len(positions)
    assert path.at_end()
    path.curr_hf = 0
    assert packet.header_bytes() == _scanned_header_bytes(packet)
    assert packet.hdr_len_units() * 4 == packet.header_bytes()
    assert packet.header_bytes() == len(encode_packet(packet)) - len(packet.payload)


class TestHeaderTables:
    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.booleans())
    def test_tables_equal_a_brute_force_scan(self, shape, flyovers):
        _assert_tables_match_a_scan(_packet(shape, flyovers))

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, st.booleans(), st.data())
    def test_decoded_and_deep_copied_paths_carry_consistent_tables(self, shape, flyovers, data):
        packet = _packet(shape, flyovers)
        cursor = data.draw(st.integers(0, packet.path.num_hopfields))
        packet.path.curr_hf = cursor
        decoded = decode_packet(encode_packet(packet))
        clone = deepcopy(packet)  # what a replaying adversary re-injects
        for other in (decoded, clone):
            assert type(other.path) is type(packet.path)
            assert other.path.curr_hf == cursor
            assert other.path.at_end() == packet.path.at_end()
            _assert_tables_match_a_scan(other)


class TestLocateBounds:
    @pytest.mark.parametrize("flyovers", [False, True])
    def test_both_ends(self, flyovers):
        path = _packet([[True, False], [False, True, True]], flyovers).path
        assert path.locate(0) == (0, 0)
        assert path.locate(4) == (1, 2)
        # -1 used to come back as (0, -1): the *last* hop field of segment 0
        for index in (-1, -5, 5, 99):
            with pytest.raises(IndexError, match=str(index)):
                path.locate(index)

    def test_current_past_the_end_raises(self):
        path = _packet([[False]], False).path
        path.curr_hf = 1
        with pytest.raises(IndexError):
            path.current()


# Per packer: in-range arguments, and (argument index, field name in the error, bits).
HOPFIELD_GOOD = (7, T0, 63, 1, 2)
HOPFIELD_FIELDS = [
    (0, "SegID", 16), (1, "timestamp", 32), (2, "ExpTime", 8), (3, "ConsIngress", 16),
    (4, "ConsEgress", 16),
]
FLYOVER_GOOD = (IsdAs(1, 2), 600, 10, 1, 2)
FLYOVER_FIELDS = [
    (1, "PktLen", 16), (2, "ResStartOffset", 16), (3, "MillisTimestamp", 16), (4, "Counter", 16),
]
RESINFO_GOOD = (1, 2, 3, 4, T0, 60)
RESINFO_FIELDS = [
    (0, "ingress", 16), (1, "egress", 16), (2, "ResID", 22), (3, "bandwidth class", 10),
    (4, "ResStart", 32), (5, "ResDuration", 16),
]
# name -> (MAC function, its packer, in-range fields, field table)
MAC_FUNCTIONS = {
    "hop field": (compute_hopfield_mac, pack_hopfield_mac_input, HOPFIELD_GOOD, HOPFIELD_FIELDS),
    "flyover": (compute_flyover_mac, pack_flyover_mac_input, FLYOVER_GOOD, FLYOVER_FIELDS),
    "ResInfo": (derive_auth_key, pack_resinfo_input, RESINFO_GOOD, RESINFO_FIELDS),
}


def _assert_field_is_range_checked(packer, good, position, name, bits) -> None:
    edge = list(good)
    edge[position] = (1 << bits) - 1
    assert len(packer(*edge)) == 16
    for bad in (-1, 1 << bits, 1 << 70, -(1 << 70)):
        arguments = list(good)
        arguments[position] = bad
        try:
            packer(*arguments)
        except ValueError as error:
            assert name in str(error) and f"{bits}-bit" in str(error)
        except struct.error:
            pytest.fail(f"struct.error escaped for {name}={bad}")
        else:
            pytest.fail(f"{name}={bad} was packed")


class TestPrfInputPackers:
    @pytest.mark.parametrize("position, name, bits", HOPFIELD_FIELDS)
    def test_hopfield_mac_input_field_ranges(self, position, name, bits):
        _assert_field_is_range_checked(
            pack_hopfield_mac_input, HOPFIELD_GOOD, position, name, bits
        )

    @pytest.mark.parametrize("position, name, bits", FLYOVER_FIELDS)
    def test_flyover_mac_input_field_ranges(self, position, name, bits):
        _assert_field_is_range_checked(
            pack_flyover_mac_input, FLYOVER_GOOD, position, name, bits
        )

    @pytest.mark.parametrize("position, name, bits", RESINFO_FIELDS)
    def test_resinfo_input_field_ranges(self, position, name, bits):
        _assert_field_is_range_checked(pack_resinfo_input, RESINFO_GOOD, position, name, bits)

    def test_layouts(self):
        assert pack_hopfield_mac_input(0x0102, 0x03040506, 0x07, 0x0809, 0x0A0B) == bytes.fromhex(
            "0000" "0102" "03040506" "00" "07" "0809" "0a0b" "0000"
        )
        assert pack_resinfo_input(1, 2, (1 << 22) - 1, 1023, 5, 6) == bytes.fromhex(
            "0001" "0002" "ffffffff" "00000005" "0006" "0000"
        )

    def test_bandwidth_class_cannot_borrow_the_resid_bits(self):
        # ResID and BW share one 32-bit word; the word would still fit.
        with pytest.raises(ValueError, match="bandwidth class"):
            pack_resinfo_input(1, 2, 0, 1 << 12, 5, 6)

    @pytest.mark.parametrize("name", MAC_FUNCTIONS)
    def test_a_mac_function_packs_and_refuses_as_its_packer(self, name):
        """Each MAC function packs its block itself; a field out of range is
        the packer's error, naming the field."""
        mac, packer, good, fields = MAC_FUNCTIONS[name]
        prf = Blake2Prf(bytes(range(16)))
        tag = mac(prf, *good)
        assert tag == prf.compute(packer(*good))[: len(tag)]
        for position, _, bits in fields:
            for bad in (-1, 1 << bits, 1 << 70):
                arguments = list(good)
                arguments[position] = bad
                with pytest.raises(ValueError) as expected:
                    packer(*arguments)
                with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                    mac(prf, *arguments)
