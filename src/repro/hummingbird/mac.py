"""Per-packet flyover MAC (Eq. 3 / Eqs. 7a-7d) and MAC aggregation (Eq. 6).

The source authenticates every packet with::

    V_K = PRF_{A_K}(DstAddr || PktLen || TS)[:6]

where ``TS = ResStartOffset || MillisTimestamp || Counter``, ``DstAddr =
DstISD || DstAS`` and ``PktLen = PayloadLen + 4 * HdrLen``.  The input is
exactly one AES block (Fig. 11), and the 6-byte tag is XOR-aggregated with
the SCION hop-field MAC into the ``AggMAC`` header field, saving 6 bytes per
hop (aggregate MACs, Katz & Lindell).

Binding the destination address prevents reservation stealing (§5.4);
binding the packet length makes the bandwidth accounting unforgeable;
binding the timestamp limits replay to the freshness window.
"""

from __future__ import annotations

import struct

from repro.crypto.prf import Prf
from repro.scion.addresses import AS_BITS, IsdAs
from repro.wire.bitfields import out_of_range

TAG_LEN = 6  # l_tag: 6 bytes => online brute force needs ~2^47 packets on average
FLYOVER_MAC_INPUT_SIZE = 16

# DstISD (16) || DstAS (48), Eq. 7c | PktLen | ResStartOffset | MillisTimestamp
# | Counter (16 each)
_MAC_INPUT = struct.Struct(">Q4H")


def pack_flyover_mac_input(
    dst: IsdAs,
    pkt_len: int,
    res_start_offset: int,
    millis_timestamp: int,
    counter: int,
) -> bytes:
    """Serialize the Fig. 11 MAC input block (exactly 16 bytes)."""
    try:
        return _MAC_INPUT.pack(
            dst.isd << AS_BITS | dst.asn, pkt_len, res_start_offset, millis_timestamp, counter
        )
    except struct.error:
        raise out_of_range(
            ("PktLen", pkt_len, 16),
            ("ResStartOffset", res_start_offset, 16),
            ("MillisTimestamp", millis_timestamp, 16),
            ("Counter", counter, 16),
        ) from None


def compute_flyover_mac(
    auth_key_prf: Prf,
    dst: IsdAs,
    pkt_len: int,
    res_start_offset: int,
    millis_timestamp: int,
    counter: int,
) -> bytes:
    """Compute the truncated per-packet tag :math:`V_K` (Eq. 7a).

    ``auth_key_prf`` is the PRF keyed with :math:`A_K`: held for the life of
    the reservation at the source, keyed afresh per packet at the router.
    """
    block = pack_flyover_mac_input(dst, pkt_len, res_start_offset, millis_timestamp, counter)
    return auth_key_prf.compute(block)[:TAG_LEN]


def aggregate_mac(hopfield_mac: bytes, flyover_mac: bytes) -> bytes:
    """XOR-aggregate the SCION hop-field MAC with the flyover MAC (Eq. 6).

    The same function recovers the candidate hop-field MAC at the router:
    ``HopFieldMAC = AggMAC XOR FlyoverMAC``.
    """
    if len(hopfield_mac) != TAG_LEN or len(flyover_mac) != TAG_LEN:
        raise ValueError("aggregate MAC requires two 6-byte tags")
    aggregate = int.from_bytes(hopfield_mac, "big") ^ int.from_bytes(flyover_mac, "big")
    return aggregate.to_bytes(TAG_LEN, "big")


def checked_pkt_len(payload_len: int, hdr_len_units: int) -> int:
    """``PktLen = PayloadLen + 4 * HdrLen`` with the overflow check of Eq. 7d.

    Raises ``OverflowError`` if the sum does not fit the 2-byte field; the
    specification mandates dropping such packets.
    """
    pkt_len = payload_len + 4 * hdr_len_units
    if pkt_len >= 1 << 16:
        raise OverflowError(f"PktLen {pkt_len} overflows 16 bits")
    return pkt_len
