"""Cryptographic substrate: AES-128, AES-CMAC, PRF backends, key derivation,
sealing and Schnorr signatures.

The AES block cipher (:mod:`repro.crypto.aes`) and the modular
exponentiation under every Schnorr signature (:mod:`repro.crypto.modexp`)
are the libcrypto CPython's own ``_hashlib`` links against, bound through
:mod:`ctypes`; everything above them is implemented here and validated
against FIPS-197 / RFC 4493 test vectors and ``pow``.  Importing the
package builds the one fixed-base table for sealing's ``g``
(:mod:`repro.crypto.fixedbase`, ~12 ms) and OpenSSL's Montgomery context
for the group's modulus, so no first key or signature of a process pays
for them.
"""

from repro.crypto.aes import AES128, BLOCK_SIZE, expand_key, xor_bytes
from repro.crypto.cmac import Cmac
from repro.crypto.keys import SecretValue, derive_auth_key, pack_resinfo_input
from repro.crypto.prf import (
    DEFAULT_PRF_FACTORY,
    AesPrf,
    Blake2Prf,
    Prf,
    PrfFactory,
)
from repro.crypto.sealing import KeyPair, SealedBox, seal, unseal
from repro.crypto.signatures import Signature, SigningKey, verify

__all__ = [
    "AES128",
    "BLOCK_SIZE",
    "expand_key",
    "xor_bytes",
    "Cmac",
    "SecretValue",
    "derive_auth_key",
    "pack_resinfo_input",
    "DEFAULT_PRF_FACTORY",
    "AesPrf",
    "Blake2Prf",
    "Prf",
    "PrfFactory",
    "KeyPair",
    "SealedBox",
    "seal",
    "unseal",
    "Signature",
    "SigningKey",
    "verify",
]
