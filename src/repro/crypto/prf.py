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
    Keyed BLAKE2s from the standard library.  Keying absorbs the key block
    once, BLAKE2's analogue of AES's expanded schedule, and every call
    continues a copy of that state.  On a 2-core x86-64 box under CPython
    3.11 (best of 40 alternating batches in one process) a held key's call
    costs ~0.48 µs against AES's ~0.66 (~0.72 when every BLAKE2 call keyed
    afresh), and a PRF keyed for one use, as the router's per-packet
    :math:`A_i` is, ~1.0 µs against AES's ~1.4.  Useful for large-scale
    network simulations where millions of tags are computed.  Selected via
    ``PrfFactory('blake2')``.

Both produce 16-byte outputs, so derived values can be used directly as
AES-128 keys.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol

from repro.crypto.aes import (
    AES128,
    BLOCK_SIZE,
    KEY_SIZE,
    _AesKey,
    _Block,
    _encrypt,
    _KEY_BITS,
    _set_encrypt_key,
    expand_key,
)
from repro.crypto.cmac import Cmac

PRF_OUTPUT_SIZE = 16


class Prf(Protocol):
    """A keyed pseudo-random function with 16-byte output."""

    def compute(self, message: bytes) -> bytes:
        """Return the 16-byte PRF output for ``message``."""
        ...


class AesPrf(AES128):
    """AES-128 PRF: ECB for exactly one block, CMAC otherwise.

    Single-block inputs (the reservation-key derivation of Fig. 12 and the
    flyover-MAC input of Fig. 11 are both exactly 16 bytes) map to one AES
    block encryption — the same operation the paper benchmarks at ~43 ns with
    AES-NI in Table 3.  Keying costs one key expansion and nothing else: the
    CMAC subkeys are derived from the same schedule on the first input that
    is not one block, which on the data plane never comes.

    The PRF is its own cipher: keying checks the key and makes
    :func:`expand_key`'s ``AES_set_encrypt_key`` call itself, and
    :meth:`compute` checks a one-block input and hands it to C itself — one
    frame for each of the data plane's per-packet AES operations.
    """

    __slots__ = ("_cmac",)

    def __init__(self, key: bytes) -> None:
        schedule = _AesKey()
        if (
            type(key) is not bytes
            or len(key) != KEY_SIZE
            or _set_encrypt_key(key, _KEY_BITS, schedule) != 0
        ):
            schedule = expand_key(key)  # raises the error that names the fault
        self._schedule = schedule
        self._cmac: Cmac | None = None

    def compute(self, message: bytes) -> bytes:
        if len(message) == BLOCK_SIZE:
            # AES128.encrypt_block's check: a subclass could misreport its length
            if type(message) is not bytes:
                raise TypeError(f"AES blocks are bytes, got {type(message).__name__}")
            out = _Block()
            _encrypt(message, out, self._schedule)
            return out.raw
        if self._cmac is None:
            self._cmac = Cmac(self)
        return self._cmac.compute(message)


class Blake2Prf:
    """Keyed BLAKE2s PRF with 16-byte digests (fast simulation backend).

    :meth:`compute` continues a copy of the keyed state, never the state.
    """

    __slots__ = ("_keyed",)

    def __init__(self, key: bytes) -> None:
        if len(key) != PRF_OUTPUT_SIZE:
            raise ValueError(f"PRF keys must be 16 bytes, got {len(key)}")
        self._keyed = hashlib.blake2s(key=key, digest_size=PRF_OUTPUT_SIZE)

    def compute(self, message: bytes) -> bytes:
        state = self._keyed.copy()
        state.update(message)
        return state.digest()


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

    __slots__ = ("backend_name", "prf_type")

    def __init__(self, backend: str = "aes") -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown PRF backend {backend!r}; options: {sorted(_BACKENDS)}")
        self.backend_name = backend
        # The backend's class: calling it keys a PRF as calling the factory
        # does, one frame shorter — the router keys A_i this way per packet.
        self.prf_type = _BACKENDS[backend]

    def __call__(self, key: bytes) -> Prf:
        return self.prf_type(key)

    def __repr__(self) -> str:
        return f"PrfFactory({self.backend_name!r})"


DEFAULT_PRF_FACTORY = PrfFactory("aes")
