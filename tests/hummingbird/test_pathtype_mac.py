"""Hummingbird path type (byte-exact) and MAC computations."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import BLAKE2, T0, addresses, flyover_count, grant_full_path

from repro.clock import SimClock
from repro.hummingbird.mac import (
    TAG_LEN,
    checked_pkt_len,
    compute_flyover_mac,
    pack_flyover_mac_input,
)
from repro.hummingbird.pathtype import (
    FLYOVER_HOPFIELD_LEN,
    HOPFIELD_LEN,
    INFO_FIELD_LEN,
    META_HDR_LEN,
    FlyoverHopFieldData,
    HummingbirdPath,
    decode_hummingbird_path,
    encode_hummingbird_path,
    is_flyover,
)
from repro.hummingbird.source import HummingbirdSource
from repro.scion.addresses import IsdAs
from repro.scion.packet import ADDR_HDR_LEN, COMMON_HDR_LEN, encode_packet, decode_packet
from repro.scion.paths import HopFieldData, SegmentInPath


class TestMacComputation:
    def test_input_is_one_aes_block(self):
        block = pack_flyover_mac_input(IsdAs(1, 2), 1000, 30, 500, 7)
        assert len(block) == 16

    def test_input_layout(self):
        block = pack_flyover_mac_input(IsdAs(0x0102, 0x030405060708), 0x1112, 0x2122, 0x3132, 0x4142)
        assert block[:2] == bytes.fromhex("0102")
        assert block[2:8] == bytes.fromhex("030405060708")
        assert block[8:10] == bytes.fromhex("1112")
        assert block[10:12] == bytes.fromhex("2122")
        assert block[12:14] == bytes.fromhex("3132")
        assert block[14:16] == bytes.fromhex("4142")

    def test_tag_is_truncated_to_6_bytes(self):
        tag = compute_flyover_mac(BLAKE2(bytes(16)), IsdAs(1, 2), 100, 0, 0, 0)
        assert len(tag) == TAG_LEN == 6

    def test_tag_binds_every_field(self):
        prf = BLAKE2(bytes(16))
        base = compute_flyover_mac(prf, IsdAs(1, 2), 100, 5, 6, 7)
        assert compute_flyover_mac(prf, IsdAs(1, 3), 100, 5, 6, 7) != base
        assert compute_flyover_mac(prf, IsdAs(1, 2), 101, 5, 6, 7) != base
        assert compute_flyover_mac(prf, IsdAs(1, 2), 100, 6, 6, 7) != base
        assert compute_flyover_mac(prf, IsdAs(1, 2), 100, 5, 7, 7) != base
        assert compute_flyover_mac(prf, IsdAs(1, 2), 100, 5, 6, 8) != base

    def test_aggmac_xor_the_tag_is_the_hop_field_mac(self, chain3, clock):
        """Eq. 6 both ways: what a source writes into AggMAC, XORed with the
        flyover tag the router recomputes, is the plain hop-field MAC."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        packet = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2).build_packet(b"x")
        hops = [hop for segment in packet.path.segments for hop in segment.hopfields]
        plain = [hop for segment in path.segments for hop in segment.hopfields]
        first = packet.path.segments[0].hopfields[0]
        tag = compute_flyover_mac(
            BLAKE2(reservations[0].auth_key), dst.isd_as, len(b"x") + 4 * packet.path.hdr_len,
            first.res_start_offset, packet.path.millis_timestamp, packet.path.counter,
        )
        recovered = bytes(x ^ y for x, y in zip(first.mac, tag))
        assert len(first.mac) == TAG_LEN and recovered == plain[0].mac != first.mac
        assert all(hop.mac != original.mac for hop, original in zip(hops, plain))

    def test_pkt_len_overflow(self):
        with pytest.raises(OverflowError):
            checked_pkt_len(65_000, 200)
        assert checked_pkt_len(100, 25) == 200


class TestHeaderSizes:
    def test_constants_match_appendix_a(self):
        assert META_HDR_LEN == 12
        assert INFO_FIELD_LEN == 8
        assert HOPFIELD_LEN == 12
        assert FLYOVER_HOPFIELD_LEN == 20

    def test_flyover_adds_8_bytes_per_hop(self, chain3):
        topology, path = chain3
        clock = SimClock(float(T0))
        src, dst = addresses(path)
        reservations = grant_full_path(topology, path, start=T0 - 5)
        with_fly = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        without = HummingbirdSource(src, dst, path, [], clock, BLAKE2)
        assert with_fly.header_bytes() - without.header_bytes() == 8 * 3


def _hop_strategy():
    plain = st.builds(
        HopFieldData,
        cons_ingress=st.integers(0, (1 << 16) - 1),
        cons_egress=st.integers(0, (1 << 16) - 1),
        exp_time=st.integers(0, 255),
        mac=st.binary(min_size=6, max_size=6),
    )
    flyover = st.builds(
        FlyoverHopFieldData,
        cons_ingress=st.integers(0, (1 << 16) - 1),
        cons_egress=st.integers(0, (1 << 16) - 1),
        exp_time=st.integers(0, 255),
        mac=st.binary(min_size=6, max_size=6),
        res_id=st.integers(0, (1 << 22) - 1),
        bw_cls=st.integers(0, 1023),
        res_start_offset=st.integers(0, (1 << 16) - 1),
        res_duration=st.integers(0, (1 << 16) - 1),
    )
    return st.one_of(plain, flyover)


class TestCodecRoundTrip:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.lists(_hop_strategy(), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    )
    def test_roundtrip_property(self, segment_hops, cons_dir):
        segments = [
            SegmentInPath(
                cons_dir=cons_dir,
                timestamp=T0,
                initial_segid=0x1234,
                hopfields=tuple(hops),
                ases=(),
            )
            for hops in segment_hops
        ]
        path = HummingbirdPath(
            segments=segments,
            base_timestamp=T0,
            millis_timestamp=777,
            counter=3,
        )
        wire = encode_hummingbird_path(path)
        assert COMMON_HDR_LEN + ADDR_HDR_LEN + len(wire) == 4 * path.hdr_len
        decoded = decode_hummingbird_path(wire)
        assert decoded.base_timestamp == T0
        assert decoded.millis_timestamp == 777
        assert decoded.counter == 3
        flat_in = [h for s in path.segments for h in s.hopfields]
        flat_out = [h for s in decoded.segments for h in s.hopfields]
        assert len(flat_in) == len(flat_out)
        for original, round_tripped in zip(flat_in, flat_out):
            assert is_flyover(original) == is_flyover(round_tripped)
            assert original.mac == round_tripped.mac
            assert original.cons_ingress == round_tripped.cons_ingress
            if is_flyover(original):
                assert original.res_id == round_tripped.res_id
                assert original.bw_cls == round_tripped.bw_cls
                assert original.res_start_offset == round_tripped.res_start_offset
                assert original.res_duration == round_tripped.res_duration

    def test_curr_hf_units_encoding(self):
        plain = HopFieldData(1, 2, 63, bytes(6))
        fly = FlyoverHopFieldData(1, 2, 63, bytes(6), 5, 10, 0, 60)
        path = HummingbirdPath(
            segments=[
                SegmentInPath(True, T0, 0, (replace(fly), plain, replace(fly)), ())
            ],
            base_timestamp=T0,
        )
        path.curr_hf = 0
        assert path.curr_hf_units() == 0
        path.curr_hf = 1
        assert path.curr_hf_units() == 5  # flyover advances by 5
        path.curr_hf = 2
        assert path.curr_hf_units() == 8  # plain advances by 3
        decoded = decode_hummingbird_path(encode_hummingbird_path(path))
        assert decoded.curr_hf == 2

    def test_full_packet_roundtrip_with_flyovers(self, chain3):
        topology, path = chain3
        clock = SimClock(float(T0))
        src, dst = addresses(path)
        reservations = grant_full_path(topology, path, start=T0 - 5)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"payload" * 10)
        decoded = decode_packet(encode_packet(packet))
        assert decoded.payload == packet.payload
        assert isinstance(decoded.path, HummingbirdPath)
        assert flyover_count(decoded.path) == 3
        assert decoded.path.base_timestamp == packet.path.base_timestamp
