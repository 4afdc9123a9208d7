"""SCION hop-field MAC computation and SegID chaining.

Every hop field carries a 6-byte MAC computed by the AS it belongs to, keyed
with the AS-local forwarding key :math:`K_i`.  MACs are *chained* through the
16-bit SegID accumulator :math:`\\beta`: the MAC input of hop ``i`` includes
:math:`\\beta_i`, and :math:`\\beta_{i+1} = \\beta_i \\oplus MAC_i[:2]`.
Chaining means a hop field is only valid in the context of the exact segment
prefix it was issued for, which prevents segment splicing.

Routers verify statelessly:

* in construction direction (C=1) the packet's SegID holds :math:`\\beta_i`;
  after verification the router XORs ``MAC[:2]`` into it;
* against construction (C=0) the packet's SegID holds :math:`\\beta_{i+1}`;
  the router XORs the *packet's* MAC bytes first, recovering a candidate
  :math:`\\beta_i`, then verifies (a forged MAC yields a wrong candidate and
  verification fails).
"""

from __future__ import annotations

import struct

from repro.crypto.prf import Prf
from repro.wire.bitfields import out_of_range

HOP_MAC_LEN = 6
SEGID_BITS = 16

# Relative hop-field expiry: value v means (v+1) * 24h/256 after the segment
# timestamp, as in the SCION specification.
EXP_TIME_UNIT = 24 * 3600 / 256
EXP_TIME = 63  # 6 hours, on every hop field beaconing builds

# 0 (16) | SegID (16) | Timestamp (32) | 0 (8) | ExpTime (8) | ConsIngress (16)
# | ConsEgress (16) | 0 (16); the router packs it itself, one frame less a hop
HOPFIELD_MAC_INPUT = struct.Struct(">2xHIxBHH2x")


def pack_hopfield_mac_input(
    seg_id: int, timestamp: int, exp_time: int, cons_ingress: int, cons_egress: int
) -> bytes:
    """16-byte MAC input per the SCION header specification."""
    try:
        return HOPFIELD_MAC_INPUT.pack(seg_id, timestamp, exp_time, cons_ingress, cons_egress)
    except struct.error:
        raise out_of_range(
            ("SegID", seg_id, SEGID_BITS),
            ("timestamp", timestamp, 32),
            ("ExpTime", exp_time, 8),
            ("ConsIngress", cons_ingress, 16),
            ("ConsEgress", cons_egress, 16),
        ) from None


def compute_hopfield_mac(
    forwarding_key_prf: Prf,
    seg_id: int,
    timestamp: int,
    exp_time: int,
    cons_ingress: int,
    cons_egress: int,
) -> bytes:
    """Compute the truncated 6-byte hop-field MAC.

    ``forwarding_key_prf`` is the PRF already keyed with the AS's :math:`K_i`.
    The block is packed here, one call; when a field is out of range,
    :func:`pack_hopfield_mac_input` raises the error that names it.
    """
    try:
        block = HOPFIELD_MAC_INPUT.pack(seg_id, timestamp, exp_time, cons_ingress, cons_egress)
    except struct.error:
        block = pack_hopfield_mac_input(seg_id, timestamp, exp_time, cons_ingress, cons_egress)
    return forwarding_key_prf.compute(block)[:HOP_MAC_LEN]


def chain_segid(seg_id: int, mac: bytes) -> int:
    """Advance the SegID accumulator: ``beta ^= MAC[:2]``."""
    return seg_id ^ (mac[0] << 8 | mac[1])
