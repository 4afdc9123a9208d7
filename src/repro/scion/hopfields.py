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

from repro.crypto.prf import Prf

HOP_MAC_LEN = 6
SEGID_BITS = 16

# Relative hop-field expiry: value v means (v+1) * 24h/256 after the segment
# timestamp, as in the SCION specification.
EXP_TIME_UNIT = 24 * 3600 / 256
DEFAULT_EXP_TIME = 63  # 6 hours


def pack_hopfield_mac_input(
    seg_id: int, timestamp: int, exp_time: int, cons_ingress: int, cons_egress: int
) -> bytes:
    """16-byte MAC input per the SCION header specification."""
    if not 0 <= seg_id < 1 << SEGID_BITS:
        raise ValueError(f"SegID {seg_id} out of 16-bit range")
    if not 0 <= timestamp < 1 << 32:
        raise ValueError(f"timestamp {timestamp} out of 32-bit range")
    if not 0 <= exp_time < 1 << 8:
        raise ValueError(f"ExpTime {exp_time} out of 8-bit range")
    if not 0 <= cons_ingress < 1 << 16 or not 0 <= cons_egress < 1 << 16:
        raise ValueError("interface identifiers out of 16-bit range")
    return (
        b"\x00\x00"
        + seg_id.to_bytes(2, "big")
        + timestamp.to_bytes(4, "big")
        + b"\x00"
        + exp_time.to_bytes(1, "big")
        + cons_ingress.to_bytes(2, "big")
        + cons_egress.to_bytes(2, "big")
        + b"\x00\x00"
    )


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
    """
    block = pack_hopfield_mac_input(seg_id, timestamp, exp_time, cons_ingress, cons_egress)
    return forwarding_key_prf.compute(block)[:HOP_MAC_LEN]


def chain_segid(seg_id: int, mac: bytes) -> int:
    """Advance the SegID accumulator: ``beta ^= MAC[:2]``."""
    return seg_id ^ int.from_bytes(mac[:2], "big")


def absolute_expiry(segment_timestamp: int, exp_time: int) -> float:
    """Absolute hop-field expiry in Unix seconds."""
    return segment_timestamp + (exp_time + 1) * EXP_TIME_UNIT
