"""Cryptographic substrate: AES-128, AES-CMAC, PRF backends, key derivation,
sealing and Schnorr signatures.

Everything is implemented from scratch (no OpenSSL dependency) and validated
against FIPS-197 / RFC 4493 test vectors.  Importing the package builds the
two fixed-base tables for ``g`` (:mod:`repro.crypto.fixedbase`, ~46 ms
together), so no first key or signature of a process pays for them.
"""

from repro.crypto.aes import AES128, BLOCK_SIZE, expand_key, xor_bytes
from repro.crypto.cmac import Cmac, aes_cmac
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
    "aes_cmac",
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
