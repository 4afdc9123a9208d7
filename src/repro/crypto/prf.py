"""Pseudo-random function abstraction used throughout Hummingbird.

The paper (§4.1) only requires "a secure pseudo-random function with an
output length sufficient to yield secure symmetric cryptographic keys".
Two interchangeable backends are provided:

``AesPrf``
    AES-128 based, matching the DPDK prototype (§7.1): one-block inputs are a
    single ECB block encryption; longer inputs fall back to AES-CMAC.  This
    is the default everywhere correctness matters.

A PRF instance *is* its key set-up (for AES, the expanded schedule), so the
data plane builds one per long-lived key and passes it around:
``derive_auth_key``, ``compute_flyover_mac`` and ``compute_hopfield_mac``
take a keyed PRF, not key bytes.  Only the per-reservation :math:`A_K` is
keyed afresh for every packet — the router stores nothing about it.

``Blake2Prf``
    Keyed BLAKE2s from the standard library.  Roughly an order of magnitude
    faster under CPython, useful for large-scale network simulations where
    millions of tags are computed.  Selected via ``PrfFactory('blake2')``.

Both produce 16-byte outputs, so derived values can be used directly as
AES-128 keys.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.crypto.cmac import Cmac

PRF_OUTPUT_SIZE = 16


class Prf(Protocol):
    """A keyed pseudo-random function with 16-byte output."""

    def compute(self, message: bytes) -> bytes:
        """Return the 16-byte PRF output for ``message``."""
        ...


class AesPrf:
    """AES-128 PRF: ECB for exactly one block, CMAC otherwise.

    Single-block inputs (the reservation-key derivation of Fig. 12 and the
    flyover-MAC input of Fig. 11 are both exactly 16 bytes) map to one AES
    block encryption — the same operation the paper benchmarks at ~43 ns with
    AES-NI in Table 3.  Keying costs one key expansion and nothing else: the
    CMAC subkeys are derived from the same schedule on the first input that
    is not one block, which on the data plane never comes.
    """

    __slots__ = ("_cipher", "_cmac")

    def __init__(self, key: bytes) -> None:
        self._cipher = AES128(key)
        self._cmac: Cmac | None = None

    def compute(self, message: bytes) -> bytes:
        if len(message) == BLOCK_SIZE:
            return self._cipher.encrypt_block(message)
        if self._cmac is None:
            self._cmac = Cmac.from_cipher(self._cipher)
        return self._cmac.compute(message)


class Blake2Prf:
    """Keyed BLAKE2s PRF with 16-byte digests (fast simulation backend)."""

    __slots__ = ("_key",)

    def __init__(self, key: bytes) -> None:
        if len(key) != PRF_OUTPUT_SIZE:
            raise ValueError(f"PRF keys must be 16 bytes, got {len(key)}")
        self._key = key

    def compute(self, message: bytes) -> bytes:
        return hashlib.blake2s(message, key=self._key, digest_size=PRF_OUTPUT_SIZE).digest()


_BACKENDS: dict[str, Callable[[bytes], Prf]] = {
    "aes": AesPrf,
    "blake2": Blake2Prf,
}


class PrfFactory:
    """Create PRF instances for a configured backend.

    The factory is passed down from topology/AS configuration so an entire
    simulation consistently uses one backend.

    >>> factory = PrfFactory('aes')
    >>> prf = factory(bytes(16))
    >>> len(prf.compute(bytes(16)))
    16
    """

    __slots__ = ("backend_name", "_constructor")

    def __init__(self, backend: str = "aes") -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown PRF backend {backend!r}; options: {sorted(_BACKENDS)}")
        self.backend_name = backend
        self._constructor = _BACKENDS[backend]

    def __call__(self, key: bytes) -> Prf:
        return self._constructor(key)

    def __repr__(self) -> str:
        return f"PrfFactory({self.backend_name!r})"


DEFAULT_PRF_FACTORY = PrfFactory("aes")
