"""10-bit bandwidth-class encoding (Appendix A.4, "BW" field).

The FlyoverHopField carries the reserved bandwidth in a 10-bit field encoded
like a tiny unsigned float: 5 bits of exponent ``e`` and 5 bits of
significand ``s``, decoding to::

    value = s                       if e == 0
    value = (32 + s) << (e - 1)     otherwise

This spans 0 .. (63 << 30) ≈ 2^36 with even spacing inside each octave —
"values from 0 to almost 2^36" per the paper.  Bandwidth values are in
kilobits per second throughout this repository, giving a ceiling of about
67 Tbps, comfortably above any single reservation.
"""

from __future__ import annotations

EXPONENT_BITS = 5
SIGNIFICAND_BITS = 5
FIELD_BITS = EXPONENT_BITS + SIGNIFICAND_BITS
MAX_CLASS = (1 << FIELD_BITS) - 1
MAX_VALUE = (32 + 31) << 30


def decode(bw_cls: int) -> int:
    """Decode a 10-bit bandwidth class to its integer value (kbps)."""
    if not 0 <= bw_cls <= MAX_CLASS:
        raise ValueError(f"bandwidth class {bw_cls} out of 10-bit range")
    exponent = bw_cls >> SIGNIFICAND_BITS
    significand = bw_cls & ((1 << SIGNIFICAND_BITS) - 1)
    if exponent == 0:
        return significand
    return (32 + significand) << (exponent - 1)


def encode_floor(value: int) -> int:
    """Largest bandwidth class whose decoded value is <= ``value``.

    ASes grant at most what was purchased, so data-plane headers round the
    reservation bandwidth *down* to an encodable class.
    """
    if value < 0:
        raise ValueError("bandwidth cannot be negative")
    if value >= MAX_VALUE:
        return MAX_CLASS
    if value < 32:
        return value
    exponent = value.bit_length() - 5  # so that 32 <= value >> (exponent-1) < 64
    significand = (value >> (exponent - 1)) - 32
    return (exponent << SIGNIFICAND_BITS) | significand


def encode_ceil(value: int) -> int:
    """Smallest bandwidth class whose decoded value is >= ``value``.

    Used when *requesting* bandwidth: the buyer rounds up so the granted
    class covers the application's needs.
    """
    floor_cls = encode_floor(value)
    if decode(floor_cls) >= value:
        return floor_cls
    if floor_cls >= MAX_CLASS:
        raise ValueError(f"bandwidth {value} exceeds the maximum encodable class")
    return floor_cls + 1
