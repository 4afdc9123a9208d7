"""Cryptographic substrate: AES-128, AES-CMAC, PRF backends, key derivation,
sealing and Ed25519 signatures.

The AES block cipher (:mod:`repro.crypto.aes`) and the Ed25519 account
signatures (:mod:`repro.crypto.signatures`) are the libcrypto CPython's own
``_hashlib`` links against, bound through :mod:`ctypes`; everything above
them is implemented here and validated against FIPS-197 / RFC 4493 / RFC
8032 test vectors, ``pow`` and a pure-Python RFC 8032 oracle in the tests.
Importing the package builds the one fixed-base table for sealing's ``g``
(:mod:`repro.crypto.fixedbase`, ~12 ms), so no first key of a process pays
for it.
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
from repro.crypto.signatures import SigningKey, verify

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
    "SigningKey",
    "verify",
]
