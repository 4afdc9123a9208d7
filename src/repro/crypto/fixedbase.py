"""Fixed-base modular exponentiation: a Lim–Lee comb.

``pow(base, x, p)`` squares its way through every bit of ``x`` even when
``base`` never changes and every one of those squares is the same as last
time.  A comb with ``t`` teeth reads ``x`` as ``t`` rows of ``c = ⌈bits/t⌉``
bits, precomputes for every subset of rows the product of their
``base^(2^(c·row))``, and then walks the ``c`` columns from the top: one
squaring and at most one table multiplication a column, instead of one
squaring a *bit*.  A windowed fixed-base table (no squarings at all) is
no faster until it is several times larger and slower to build.

Results equal ``pow`` bit for bit.  Not constant-time — an all-zero column
skips its multiplication — and neither is CPython's ``pow``.

``TEETH`` was chosen by measurement (CPython 3.11, 2-core box, 2048-bit
modulus, best of 25; ``pow`` takes 11.1 ms for ``2^x`` at 1024 bits and
22.4 ms for ``4^x`` at 2047), building both of the repository's tables:

=====  ===========  ==========  ==========  ==========
teeth  build, both  size, both  1024-bit x  2047-bit x
=====  ===========  ==========  ==========  ==========
8      ~38 ms       0.16 MB     3.16 ms     6.36 ms
9      ~46 ms       0.31 MB     2.80 ms     5.61 ms
10     ~60 ms       0.63 MB     2.55 ms     5.10 ms
11     ~89 ms       1.26 MB     2.36 ms     4.71 ms
=====  ===========  ==========  ==========  ==========

The tables are built at import (a first use inside somebody's timed
purchase is worse), so one more tooth doubles a cost every importing
process pays to take a tenth off a cost only the exponentiating ones do.
Ten teeth sit on the 60 ms the import is allowed; nine leave a quarter of
it spare and cost a 4-hop purchase ~1.7 ms of ~140.
"""

from __future__ import annotations

TEETH = 9


class FixedBase:
    """``base^x mod modulus`` for ``0 <= x < 2^bits``, from a ``2^TEETH``-entry table."""

    def __init__(self, base: int, modulus: int, bits: int) -> None:
        self.modulus = modulus
        self.bits = bits
        self._columns = columns = -(-bits // TEETH)
        self._binary = f"0{columns * TEETH}b"  # format spec: every row at full width
        # table[j] = product of base^(2^(columns * row)) over the set bits ``row`` of j
        table = [1]
        for row in range(TEETH):
            power = pow(power, 1 << columns, modulus) if row else base % modulus
            table += [entry * power % modulus for entry in table]
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus``; ``ValueError`` outside ``[0, 2^bits)``."""
        if exponent < 0 or exponent.bit_length() > self.bits:
            raise ValueError(f"exponent outside [0, 2^{self.bits})")
        # Most significant bit first, the rows laid end to end: every
        # ``columns``-th character from offset k is column k's bit of each
        # row, top row first, which is that column's table index in binary.
        digits = format(exponent, self._binary)
        columns, modulus, table = self._columns, self.modulus, self._table
        result = 1
        for column in range(columns):
            result = result * result % modulus
            index = int(digits[column::columns], 2)
            if index:
                result = result * table[index] % modulus
        return result
