"""Codec robustness: arbitrary and mutated wire input must fail *cleanly*.

A border router parses attacker-controlled bytes; the codecs must either
produce a packet or raise ``ValueError`` — never an IndexError/KeyError/
OverflowError that could crash a router process.  The reservation record a
host unseals is hostile too; its decoder raises what the host records.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import BLAKE2, T0, addresses, grant_full_path
from tests.security import test_attacks

from repro.clock import SimClock
from repro.hummingbird.pathtype import decode_hummingbird_path
from repro.hummingbird.reservation import MAX_DURATION, FlyoverReservation, ResInfo
from repro.hummingbird.source import HummingbirdSource
from repro.scion.addresses import IsdAs
from repro.scion.packet import decode_packet, encode_packet


@settings(max_examples=150)
@given(st.binary(max_size=64))
def test_hummingbird_path_decoder_never_crashes(data):
    try:
        decode_hummingbird_path(data)
    except ValueError:
        pass  # rejecting malformed input is the correct behaviour


@settings(max_examples=150)
@given(st.binary(max_size=200))
def test_packet_decoder_never_crashes(data):
    try:
        decode_packet(data)
    except ValueError:
        pass


def _reference_wire() -> bytes:
    from repro.netsim.scenarios import linear_path

    topology, path = linear_path(3, prf_factory=BLAKE2)
    clock = SimClock(float(T0))
    src, dst = addresses(path)
    reservations = grant_full_path(topology, path, start=T0 - 5)
    source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
    return encode_packet(source.build_packet(b"payload" * 8))


WIRE = _reference_wire()

# What a host's collect records for each hostile plaintext, by exception name.
HOSTILE_PLAINTEXTS = test_attacks.TestHostileDelivery.HOSTILE_PLAINTEXTS


class TestMutationFuzz:
    @pytest.fixture
    def wire(self):
        return WIRE

    @settings(max_examples=120, deadline=None)
    @given(position=st.integers(0, 150), value=st.integers(0, 255))
    def test_single_byte_mutations(self, position, value):
        wire = WIRE
        mutated = bytearray(wire)
        mutated[position % len(mutated)] = value
        try:
            packet = decode_packet(bytes(mutated))
        except ValueError:
            return
        # If it parses, re-encoding must not crash either (it may differ:
        # the mutation might have hit the payload or a MAC byte).
        try:
            encode_packet(packet)
        except ValueError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(1, 100))
    def test_truncations_rejected(self, cut):
        wire = WIRE
        truncated = wire[: len(wire) - cut]
        try:
            packet = decode_packet(truncated)
        except ValueError:
            return
        # Only acceptable parse: the cut removed exactly trailing payload
        # bytes and the PayloadLen happened to still match (impossible
        # here because PayloadLen is fixed) — so reaching this is a bug.
        pytest.fail(f"truncated packet of {len(truncated)} bytes parsed: {packet}")

    def test_roundtrip_is_stable(self, wire):
        packet = decode_packet(wire)
        assert encode_packet(packet) == wire


class TestReservationRecord:
    """``FlyoverReservation.to_bytes`` / ``from_bytes``: the record an AS
    seals to the redeemer, and the one place it is spelled."""

    @settings(max_examples=100)
    @given(
        isd_as=st.builds(IsdAs, st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 48) - 1)),
        resinfo=st.builds(
            ResInfo,
            ingress=st.integers(0, (1 << 16) - 1),
            egress=st.integers(0, (1 << 16) - 1),
            res_id=st.integers(0, (1 << 22) - 1),
            bw_cls=st.integers(0, (1 << 10) - 1),
            start=st.integers(0, (1 << 32) - 1),
            duration=st.integers(1, MAX_DURATION),
        ),
        auth_key=st.binary(min_size=16, max_size=16),
    )
    def test_round_trip(self, isd_as, resinfo, auth_key):
        reservation = FlyoverReservation(isd_as, resinfo, auth_key)
        assert FlyoverReservation.from_bytes(reservation.to_bytes()) == reservation

    def test_the_record_is_the_delivered_json_object(self):
        reservation = FlyoverReservation(
            IsdAs(1, 2), ResInfo(3, 4, 5, 6, T0, 600), bytes(range(16))
        )
        assert reservation.to_bytes() == (
            b'{"isd": 1, "asn": 2, "ingress": 3, "egress": 4, "res_id": 5, "bw_cls": 6, '
            b'"start": %d, "duration": 600, "auth_key": "000102030405060708090a0b0c0d0e0f"}'
            % T0
        )

    @pytest.mark.parametrize(
        "plaintext, raised", HOSTILE_PLAINTEXTS.values(), ids=HOSTILE_PLAINTEXTS.keys()
    )
    def test_hostile_records_raise_what_the_host_records(self, plaintext, raised):
        with pytest.raises(Exception) as caught:
            FlyoverReservation.from_bytes(plaintext)
        assert type(caught.value).__name__ == raised
