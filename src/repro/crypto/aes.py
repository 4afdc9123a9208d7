"""AES-128 block encryption (FIPS-197) from the interpreter's own OpenSSL.

Hummingbird derives reservation keys and per-packet authentication tags with
AES-based PRFs; the paper's DPDK prototype runs them on AES-NI.  This module
binds, through :mod:`ctypes`, the low-level ``AES_set_encrypt_key`` and
``AES_encrypt`` of the libcrypto that CPython's ``_hashlib`` is linked
against (:mod:`repro.crypto.libcrypto`, which :mod:`repro.crypto.signatures`
binds through too).  If one is missing, importing this module raises
:class:`ImportError` naming it.

Only encryption exists: CMAC, the one-block PRFs and the CTR keystream of
the sealed-delivery envelope in :mod:`repro.crypto.sealing` never decrypt.
A key schedule is OpenSSL's 244-byte ``AES_KEY`` (sixty round-key words and
the round count) in a buffer Python owns, so nothing is freed by hand.  Every
input is checked to be exactly ``bytes`` (a subclass could misreport its
length) of the right length before C reads it.  The tests check the cipher
against FIPS-197 / SP 800-38A vectors and a byte-wise FIPS-197 reference.
"""

from __future__ import annotations

import ctypes

from repro.crypto.libcrypto import bind

BLOCK_SIZE = 16
KEY_SIZE = 16

_AesKey = ctypes.c_char * 244  # what create_string_buffer(244) makes, without its call
_Block = ctypes.c_char * BLOCK_SIZE
_KEY_BITS = ctypes.c_int(128)  # converted once, not on every keying
_set_encrypt_key = bind(
    "AES_set_encrypt_key", ctypes.c_int, ctypes.c_char_p, ctypes.c_int, _AesKey
)
_encrypt = bind("AES_encrypt", None, ctypes.c_char_p, _Block, _AesKey)


def expand_key(key: bytes) -> ctypes.Array:
    """Expand a 16-byte key into OpenSSL's ``AES_KEY`` (FIPS-197 key schedule).

    This corresponds to the "AES-extend authentication key" step measured in
    Table 3 of the paper: deriving a reservation key :math:`A_K` yields raw
    key bytes, which must be expanded before the flyover MAC can be computed.
    """
    if type(key) is not bytes:
        raise TypeError(f"AES-128 keys are bytes, got {type(key).__name__}")
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)} bytes")
    schedule = _AesKey()
    if _set_encrypt_key(key, _KEY_BITS, schedule) != 0:  # a NULL pointer or a bad bit count
        raise ValueError("AES_set_encrypt_key refused the key")
    return schedule


class AES128:
    """AES-128 block cipher with a precomputed key schedule.

    >>> cipher = AES128(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    __slots__ = ("_schedule",)

    def __init__(self, key: bytes) -> None:
        self._schedule = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if type(block) is not bytes:
            raise TypeError(f"AES blocks are bytes, got {type(block).__name__}")
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        out = _Block()
        _encrypt(block, out, self._schedule)
        return out.raw


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"cannot XOR byte strings of lengths {len(a)} and {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))
