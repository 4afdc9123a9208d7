"""Pure-Python AES-128 block cipher (FIPS-197).

Hummingbird derives reservation keys and per-packet authentication tags with
AES-based PRFs (the paper's DPDK prototype uses AES-NI).  This module
implements the cipher from scratch so the repository has no dependency on
OpenSSL-backed packages; it is validated against the FIPS-197 and SP 800-38A
test vectors in ``tests/crypto/test_aes.py``.

Only encryption exists: CMAC, the one-block PRFs and the CTR keystream of
the sealed-delivery envelope in :mod:`repro.crypto.sealing` never decrypt.

:meth:`AES128.encrypt_block` is on every reserved packet's path three times
per hop and :func:`expand_key` once, so both are written for CPython speed
and checked against a plain byte-wise FIPS-197 reference in the tests.

**State layout.**  The state is one 128-bit int, byte ``4 * column + row``
of FIPS-197 at bits ``127 - 8 * (4 * column + row)`` — the block read
big-endian.  A round key is one such int, the schedule a tuple of eleven.

**Round tables.**  ``_ROUND[i][x]`` is what state byte ``i`` with value
``x`` contributes to the next state: its T-table word (SubBytes and the
MixColumns column of its row) already shifted to the column ShiftRows sends
it to.  A round is therefore sixteen lookups XORed with the round key, and
the ``to_bytes(16)`` of the result, unpacked sixteen ways, *is* the next
round's indices — no shift, no mask.  ``_FINAL`` is the same for the last
round (S-box byte at its ShiftRows position, no MixColumns).

**Key-schedule tables.**  With ``w0..w3`` the words of a round key and
``g = SubWord(RotWord(w3)) ^ Rcon``, the next key's words are ``w0^g``,
``w1^w0^g``, ``w2^w1^w0^g``, ``w3^w2^w1^w0^g``: as one int,
``rk ^ rk>>32 ^ rk>>64 ^ rk>>96 ^ g * (2**96 + 2**64 + 2**32 + 1)``.
``_SCHEDULE[j][x]`` is the byte of ``g`` that byte ``j`` of ``w3`` becomes,
already replicated into all four words; ``_RCON`` is replicated likewise.

Everything is computed once at import from the S-box: 2 x 16 x 256 + 4 x 256
ints of up to 128 bits, about 0.5 MB.  For throughput-oriented simulations,
:mod:`repro.crypto.prf` offers a keyed-BLAKE2 backend.
"""

from __future__ import annotations

BLOCK_SIZE = 16
KEY_SIZE = 16
NUM_ROUNDS = 10

# ---------------------------------------------------------------------------
# S-box generation (multiplicative inverse in GF(2^8) + affine transform).
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> bytes:
    """Compute the AES S-box from first principles."""
    # Multiplicative inverses via exponentiation by generator 3.
    pow3 = [0] * 256
    log3 = [0] * 256
    value = 1
    for exponent in range(255):
        pow3[exponent] = value
        log3[value] = exponent
        value = _gf_mul(value, 3)
    pow3[255] = pow3[0]

    sbox = bytearray(256)
    for x in range(256):
        inv = 0 if x == 0 else pow3[255 - log3[x]]
        # Affine transform: b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63
        b = inv
        transformed = 0x63
        for shift in range(5):
            transformed ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = transformed
    return bytes(sbox)


SBOX = _build_sbox()

_WORD_MASK = 0xFFFFFFFF
_ALL_WORDS = (1 << 96) | (1 << 64) | (1 << 32) | 1  # g -> g in every word

# Round constants for the key schedule (powers of 2 in GF(2^8)), in the top
# byte of every word.
_RCON = tuple(
    (constant << 24) * _ALL_WORDS
    for constant in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)
)


def _build_round_tables() -> tuple[list[list[int]], list[list[int]]]:
    """Per state-byte position: its contribution to the next 128-bit state."""
    # What MixColumns makes of S-box output s in row 0: the column (2s, s, s, 3s);
    # in row r the same column rotated down by r.
    mixed = [(_gf_mul(s, 2), s, s, _gf_mul(s, 3)) for s in SBOX]
    rounds, final = [], []
    for position in range(BLOCK_SIZE):
        column, row = divmod(position, 4)
        word_shift = 32 * (3 - (column - row) % 4)  # ShiftRows: row r moves r columns left
        r0, r1, r2, r3 = (-row % 4, (1 - row) % 4, (2 - row) % 4, (3 - row) % 4)
        rounds.append(
            [(m[r0] << 24 | m[r1] << 16 | m[r2] << 8 | m[r3]) << word_shift for m in mixed]
        )
        final.append([s << word_shift + 8 * (3 - row) for s in SBOX])
    return rounds, final


_ROUND, _FINAL = _build_round_tables()

# RotWord moves byte j of w3 to byte j - 1 (byte 0 to byte 3) of g.
_SCHEDULE = tuple(
    [(SBOX[x] << 8 * (3 - (j - 1) % 4)) * _ALL_WORDS for x in range(256)] for j in range(4)
)


def expand_key(key: bytes) -> tuple[int, ...]:
    """Expand a 16-byte key into eleven 128-bit round keys (FIPS-197 key schedule).

    This corresponds to the "AES-extend authentication key" step measured in
    Table 3 of the paper: deriving a reservation key :math:`A_K` yields raw
    key bytes, which must be expanded before the flyover MAC can be computed.
    """
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)} bytes")
    g0, g1, g2, g3 = _SCHEDULE
    round_key = int.from_bytes(key, "big")
    round_keys = [round_key]
    for rcon in _RCON:
        w3 = round_key & _WORD_MASK
        folded = round_key ^ round_key >> 32  # then ^ folded >> 64: all four prefixes
        round_key = (
            folded ^ folded >> 64
            ^ g0[w3 >> 24] ^ g1[w3 >> 16 & 255] ^ g2[w3 >> 8 & 255] ^ g3[w3 & 255] ^ rcon
        )
        round_keys.append(round_key)
    return tuple(round_keys)


class AES128:
    """AES-128 block cipher with a precomputed key schedule.

    >>> cipher = AES128(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    __slots__ = ("_first_key", "_middle_keys", "_last_key")

    def __init__(self, key: bytes) -> None:
        round_keys = expand_key(key)
        self._first_key = round_keys[0]
        self._middle_keys = round_keys[1:NUM_ROUNDS]
        self._last_key = round_keys[NUM_ROUNDS]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _ROUND
        state = int.from_bytes(block, "big") ^ self._first_key
        for round_key in self._middle_keys:
            a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = state.to_bytes(BLOCK_SIZE, "big")
            state = (
                t0[a] ^ t1[b] ^ t2[c] ^ t3[d] ^ t4[e] ^ t5[f] ^ t6[g] ^ t7[h]
                ^ t8[i] ^ t9[j] ^ t10[k] ^ t11[l] ^ t12[m] ^ t13[n] ^ t14[o] ^ t15[p]
                ^ round_key
            )
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = _FINAL
        a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = state.to_bytes(BLOCK_SIZE, "big")
        return (
            t0[a] ^ t1[b] ^ t2[c] ^ t3[d] ^ t4[e] ^ t5[f] ^ t6[g] ^ t7[h]
            ^ t8[i] ^ t9[j] ^ t10[k] ^ t11[l] ^ t12[m] ^ t13[n] ^ t14[o] ^ t15[p]
            ^ self._last_key
        ).to_bytes(BLOCK_SIZE, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"cannot XOR byte strings of lengths {len(a)} and {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))
