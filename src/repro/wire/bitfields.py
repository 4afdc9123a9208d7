"""Bit-level packing helpers for the byte-exact header formats of Appendix A.

Header fields in SCION and Hummingbird do not align to byte boundaries
(22-bit ResIDs, 7-bit segment lengths, 2-bit indices...), so encoding and
decoding go through a small big-endian bit accumulator.
"""

from __future__ import annotations


class BitPacker:
    """Accumulates values MSB-first and renders them as bytes.

    >>> p = BitPacker()
    >>> p.put(0b10, 2).put(0b000011, 6)
    BitPacker(8 bits)
    >>> p.to_bytes().hex()
    '83'
    """

    __slots__ = ("_value", "_bits")

    def __init__(self) -> None:
        self._value = 0
        self._bits = 0

    def put(self, value: int, width: int) -> "BitPacker":
        """Append ``value`` using exactly ``width`` bits."""
        if width <= 0:
            raise ValueError("bit width must be positive")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._bits += width
        return self

    @property
    def bit_length(self) -> int:
        return self._bits

    def to_bytes(self) -> bytes:
        """Render the accumulated bits; total width must be a whole byte count."""
        if self._bits % 8 != 0:
            raise ValueError(f"accumulated {self._bits} bits, not a multiple of 8")
        return self._value.to_bytes(self._bits // 8, "big")

    def __repr__(self) -> str:
        return f"BitPacker({self._bits} bits)"


class BitUnpacker:
    """Reads values MSB-first from a byte string.

    >>> u = BitUnpacker(bytes([0x83]))
    >>> u.take(2), u.take(6)
    (2, 3)
    """

    __slots__ = ("_value", "_remaining")

    def __init__(self, data: bytes) -> None:
        self._value = int.from_bytes(data, "big")
        self._remaining = len(data) * 8

    def take(self, width: int) -> int:
        """Consume and return the next ``width`` bits."""
        if width <= 0:
            raise ValueError("bit width must be positive")
        if width > self._remaining:
            raise ValueError(f"requested {width} bits but only {self._remaining} remain")
        self._remaining -= width
        result = (self._value >> self._remaining) & ((1 << width) - 1)
        return result


def out_of_range(*fields: tuple[str, object, int]) -> ValueError:
    """The error naming the first ``(name, value, bits)`` that is not an
    unsigned ``bits``-bit integer.

    The one-block PRF inputs are packed by precompiled ``struct.Struct``
    layouts whose own range check serves the happy path; when it trips, the
    packer asks here which field it was.
    """
    for name, value, bits in fields:
        if not (isinstance(value, int) and 0 <= value < 1 << bits):
            return ValueError(f"{name} {value!r} out of {bits}-bit range")
    return ValueError("fields do not fit their layout")
