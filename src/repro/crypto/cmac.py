"""AES-CMAC message authentication code (RFC 4493 / NIST SP 800-38B).

SCION computes hop-field MACs with AES-CMAC; Hummingbird reuses the same
primitive for inputs longer than a single AES block.  Validated against the
four RFC 4493 test vectors in ``tests/crypto/test_cmac.py``.
"""

from __future__ import annotations

import hmac

from repro.crypto.aes import AES128, BLOCK_SIZE, xor_bytes

_MSB_MASK = 0x80
_REDUCTION = 0x87  # x^128 + x^7 + x^2 + x + 1


def _left_shift_one(block: bytes) -> bytes:
    """Shift a 16-byte string left by one bit."""
    as_int = int.from_bytes(block, "big")
    shifted = (as_int << 1) & ((1 << 128) - 1)
    return shifted.to_bytes(BLOCK_SIZE, "big")


def derive_subkeys(cipher: AES128) -> tuple[bytes, bytes]:
    """Derive the CMAC subkeys K1 (full final block) and K2 (padded final block)."""
    zero_ciphertext = cipher.encrypt_block(bytes(BLOCK_SIZE))
    k1 = _left_shift_one(zero_ciphertext)
    if zero_ciphertext[0] & _MSB_MASK:
        k1 = k1[:-1] + bytes([k1[-1] ^ _REDUCTION])
    k2 = _left_shift_one(k1)
    if k1[0] & _MSB_MASK:
        k2 = k2[:-1] + bytes([k2[-1] ^ _REDUCTION])
    return k1, k2


class Cmac:
    """AES-CMAC over an already-keyed cipher, subkeys derived once.

    >>> mac = Cmac(AES128(bytes.fromhex('2b7e151628aed2a6abf7158809cf4f3c')))
    >>> mac.compute(b'').hex()
    'bb1d6929e95937287fa37d129b756746'
    """

    __slots__ = ("_cipher", "_k1", "_k2")

    def __init__(self, cipher: AES128) -> None:
        self._cipher = cipher
        self._k1, self._k2 = derive_subkeys(cipher)

    def compute(self, message: bytes) -> bytes:
        """Return the 16-byte CMAC of ``message``."""
        num_blocks = (len(message) + BLOCK_SIZE - 1) // BLOCK_SIZE
        if num_blocks == 0:
            last_block = xor_bytes(_pad(b""), self._k2)
            num_blocks = 1
        else:
            final = message[(num_blocks - 1) * BLOCK_SIZE :]
            if len(final) == BLOCK_SIZE:
                last_block = xor_bytes(final, self._k1)
            else:
                last_block = xor_bytes(_pad(final), self._k2)

        state = bytes(BLOCK_SIZE)
        for i in range(num_blocks - 1):
            block = message[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
            state = self._cipher.encrypt_block(xor_bytes(state, block))
        return self._cipher.encrypt_block(xor_bytes(state, last_block))

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Check the full 16-byte ``tag`` against the CMAC of ``message``.

        The comparison takes the same time wherever the first wrong byte is,
        so a forger learns nothing from how fast a guess is refused.
        """
        return hmac.compare_digest(self.compute(message), tag)


def _pad(partial_block: bytes) -> bytes:
    """10* padding to a full AES block."""
    return partial_block + b"\x80" + bytes(BLOCK_SIZE - len(partial_block) - 1)
