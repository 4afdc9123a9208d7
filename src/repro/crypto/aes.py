"""Pure-Python AES-128 block cipher (FIPS-197).

Hummingbird derives reservation keys and per-packet authentication tags with
AES-based PRFs (the paper's DPDK prototype uses AES-NI).  This module
implements the cipher from scratch so the repository has no dependency on
OpenSSL-backed packages; it is validated against the FIPS-197 and SP 800-38A
test vectors in ``tests/crypto/test_aes.py``.

Only encryption exists: CMAC, the one-block PRFs and the CTR keystream of
the sealed-delivery envelope in :mod:`repro.crypto.sealing` never decrypt.

The S-box and the four T-tables are precomputed once at import time.
:meth:`AES128.encrypt_block` is on every reserved packet's path three times
per hop, so it is written for CPython speed — one 128-bit load, the rounds
as four table-lookup expressions, one 128-bit store — and is checked against
a plain byte-wise FIPS-197 reference in the tests.  For throughput-oriented
simulations, :mod:`repro.crypto.prf` offers a keyed-BLAKE2 backend.
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

# Round constants for the key schedule (powers of 2 in GF(2^8)).
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _build_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """Precompute the four encryption T-tables (SubBytes+ShiftRows+MixColumns)."""
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = SBOX[x]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0.append(word)
        t1.append(((word >> 8) | (word << 24)) & 0xFFFFFFFF)
        t2.append(((word >> 16) | (word << 16)) & 0xFFFFFFFF)
        t3.append(((word >> 24) | (word << 8)) & 0xFFFFFFFF)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_tables()

# Offsets of rounds 1..9 into the 44-word schedule; round 0 and round 10 are
# spelled out in ``encrypt_block``.
_ROUND_KEY_OFFSETS = tuple(range(4, 4 * NUM_ROUNDS, 4))


def expand_key(key: bytes) -> list[int]:
    """Expand a 16-byte key into 44 round-key words (FIPS-197 key schedule).

    This corresponds to the "AES-extend authentication key" step measured in
    Table 3 of the paper: deriving a reservation key :math:`A_K` yields raw
    key bytes, which must be expanded before the flyover MAC can be computed.
    """
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)} bytes")
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 4 * (NUM_ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )  # SubWord
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


class AES128:
    """AES-128 block cipher with a precomputed key schedule.

    >>> cipher = AES128(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    __slots__ = ("_round_keys",)

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._round_keys
        ta, tb, tc, td, sb = _T0, _T1, _T2, _T3, SBOX
        state = int.from_bytes(block, "big")
        s0 = (state >> 96) ^ rk[0]
        s1 = (state >> 64 & 0xFFFFFFFF) ^ rk[1]
        s2 = (state >> 32 & 0xFFFFFFFF) ^ rk[2]
        s3 = (state & 0xFFFFFFFF) ^ rk[3]

        # Every word stays below 2^32, so its top byte needs no mask.
        for k in _ROUND_KEY_OFFSETS:
            n0 = ta[s0 >> 24] ^ tb[s1 >> 16 & 255] ^ tc[s2 >> 8 & 255] ^ td[s3 & 255] ^ rk[k]
            n1 = ta[s1 >> 24] ^ tb[s2 >> 16 & 255] ^ tc[s3 >> 8 & 255] ^ td[s0 & 255] ^ rk[k + 1]
            n2 = ta[s2 >> 24] ^ tb[s3 >> 16 & 255] ^ tc[s0 >> 8 & 255] ^ td[s1 & 255] ^ rk[k + 2]
            s3 = ta[s3 >> 24] ^ tb[s0 >> 16 & 255] ^ tc[s1 >> 8 & 255] ^ td[s2 & 255] ^ rk[k + 3]
            s0, s1, s2 = n0, n1, n2

        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        w0 = sb[s0 >> 24] << 24 | sb[s1 >> 16 & 255] << 16 | sb[s2 >> 8 & 255] << 8 | sb[s3 & 255]
        w1 = sb[s1 >> 24] << 24 | sb[s2 >> 16 & 255] << 16 | sb[s3 >> 8 & 255] << 8 | sb[s0 & 255]
        w2 = sb[s2 >> 24] << 24 | sb[s3 >> 16 & 255] << 16 | sb[s0 >> 8 & 255] << 8 | sb[s1 & 255]
        w3 = sb[s3 >> 24] << 24 | sb[s0 >> 16 & 255] << 16 | sb[s1 >> 8 & 255] << 8 | sb[s2 & 255]
        return (
            (w0 ^ rk[40]) << 96 | (w1 ^ rk[41]) << 64 | (w2 ^ rk[42]) << 32 | (w3 ^ rk[43])
        ).to_bytes(BLOCK_SIZE, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"cannot XOR byte strings of lengths {len(a)} and {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))
