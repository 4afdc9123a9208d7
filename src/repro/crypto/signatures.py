"""Ed25519 account signatures (RFC 8032) from the interpreter's own OpenSSL.

Sui accounts sign with Ed25519, and so do ours: an address is the hash of
an Ed25519 public key (:func:`repro.ledger.accounts.address_of`), the
CP-PKI trust anchor signs AS certificates (:mod:`repro.controlplane.pki`),
and an AS proves possession of its certified key by signing its address
before the asset contract issues it an authorization token (§4.2).

This module binds, through :mod:`ctypes`, the ``EVP_PKEY`` Ed25519 calls of
the libcrypto that CPython's ``_hashlib`` is linked against, through the
one opening :mod:`repro.crypto.aes` binds through too
(:mod:`repro.crypto.libcrypto`).  If a symbol is missing, importing this
module raises :class:`ImportError` naming it; there is no fallback.  Every return code is
checked, and every ``EVP_PKEY`` and ``EVP_MD_CTX`` is freed on the way
out, whether the call succeeded or not.

A private key is a 32-byte seed, a public key is 32 bytes and a signature
64, all plain ``bytes``.  Signing is deterministic (RFC 8032 §5.1.6), so
:meth:`SigningKey.sign` draws nothing.

:func:`verify` takes transaction-supplied values and never raises.  Before
any C call it refuses anything that is not exactly ``bytes`` (a subclass
could misreport its length) of the right length, and every encoding of a
point of small order as the public key, the non-canonical ``y >= p`` ones
included.  OpenSSL 3.0 refuses ``S >= L`` but not a small-order key: with
the identity as the key, ``R`` the identity and ``S = 0`` verify for any
message, a universal forgery.

Cost, best of 25 on a 2-core x86-64 box (CPython 3.11, OpenSSL 3.0.19):
a :attr:`~SigningKey.public` ~0.07 ms, a :meth:`~SigningKey.sign` ~0.15 ms
(it expands the seed again) and a :func:`verify` ~0.19 ms, where 2048-bit
Schnorr on OpenSSL's exponentiation took ~0.8, ~2.8 and ~3.5 ms in the same
window.  What is constant-time is OpenSSL's signing; nothing here branches
on a secret.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

from repro.crypto.libcrypto import LIBCRYPTO as _libcrypto, bind as _bind

SEED_BYTES = 32
PUBLIC_KEY_BYTES = 32
SIGNATURE_BYTES = 64
_ED25519 = 1087  # EVP_PKEY_ED25519, which is NID_ED25519

_P = 2**255 - 19
_ORDER_8_Y = 0x5FC536D880238B13933C6D305ACDFD5F098EFF289F4C345B027B2C28F95E826
# Both sign bits of the y of every point of order 1, 2, 4 and 8, and of y + p
# where it fits in 255 bits (y = 0 and 1): 14 encodings.
_SMALL_ORDER = frozenset(
    (y | sign << 255).to_bytes(PUBLIC_KEY_BYTES, "little")
    for y in (0, 1, _P - 1, _ORDER_8_Y, _P - _ORDER_8_Y, _P, _P + 1)
    for sign in (0, 1)
)

_Pointer = ctypes.c_void_p
_Size = ctypes.c_size_t
_SizeOut = ctypes.POINTER(_Size)
_new_private_key = _bind(
    "EVP_PKEY_new_raw_private_key", _Pointer, ctypes.c_int, _Pointer, ctypes.c_char_p, _Size
)
_new_public_key = _bind(
    "EVP_PKEY_new_raw_public_key", _Pointer, ctypes.c_int, _Pointer, ctypes.c_char_p, _Size
)
_get_public_key = _bind(
    "EVP_PKEY_get_raw_public_key", ctypes.c_int, _Pointer, ctypes.c_char_p, _SizeOut
)
_pkey_free = _bind("EVP_PKEY_free", None, _Pointer)
_ctx_new = _bind("EVP_MD_CTX_new", _Pointer)
_ctx_free = _bind("EVP_MD_CTX_free", None, _Pointer)
# (ctx, EVP_PKEY_CTX **, digest, engine, key): no digest, as Ed25519 hashes itself
_sign_init = _bind("EVP_DigestSignInit", ctypes.c_int, *(_Pointer,) * 5)
_sign = _bind(
    "EVP_DigestSign", ctypes.c_int, _Pointer, ctypes.c_char_p, _SizeOut, ctypes.c_char_p, _Size
)
_verify_init = _bind("EVP_DigestVerifyInit", ctypes.c_int, *(_Pointer,) * 5)
_verify = _bind(
    "EVP_DigestVerify", ctypes.c_int, _Pointer, ctypes.c_char_p, _Size, ctypes.c_char_p, _Size
)


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 private key: its 32-byte seed (RFC 8032 §5.1.5)."""

    seed: bytes
    # the public key, derived on first use; invisible to ==, hash and repr
    _public: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.seed) is not bytes or len(self.seed) != SEED_BYTES:
            raise ValueError(f"an Ed25519 seed is {SEED_BYTES} bytes")

    @staticmethod
    def generate(rng) -> "SigningKey":
        """A seed of ``rng.randbytes``."""
        return SigningKey(rng.randbytes(SEED_BYTES))

    def _key(self) -> int:
        """A fresh ``EVP_PKEY`` for the seed; the caller frees it."""
        key = _new_private_key(_ED25519, None, self.seed, SEED_BYTES)
        if not key:
            raise MemoryError("EVP_PKEY_new_raw_private_key failed")
        return key

    @property
    def public(self) -> bytes:
        if self._public is None:
            out, length = ctypes.create_string_buffer(PUBLIC_KEY_BYTES), _Size(PUBLIC_KEY_BYTES)
            key = self._key()
            try:
                if _get_public_key(key, out, length) != 1:
                    raise RuntimeError("EVP_PKEY_get_raw_public_key failed")
            finally:
                _pkey_free(key)
            object.__setattr__(self, "_public", out.raw)
        return self._public

    def sign(self, message: bytes) -> bytes:
        """The 64-byte signature ``R || S`` of *message*."""
        if type(message) is not bytes:
            raise TypeError(f"messages are bytes, got {type(message).__name__}")
        out, length = ctypes.create_string_buffer(SIGNATURE_BYTES), _Size(SIGNATURE_BYTES)
        key = self._key()
        ctx = None
        try:
            ctx = _ctx_new()
            if not ctx:
                raise MemoryError("EVP_MD_CTX_new failed")
            if _sign_init(ctx, None, None, None, key) != 1:
                raise RuntimeError("EVP_DigestSignInit failed")
            if _sign(ctx, out, length, message, len(message)) != 1:
                raise RuntimeError("EVP_DigestSign failed")
        finally:
            if ctx:
                _ctx_free(ctx)
            _pkey_free(key)
        return out.raw


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Whether *signature* is *public_key*'s over *message*; never raises.

    ``False`` before any C call for anything but exact ``bytes`` of 32, any
    and 64 bytes, and for a small-order key (see the module docstring);
    ``False`` too if OpenSSL cannot load the key or allocate a context.
    """
    if not (
        type(public_key) is bytes
        and type(message) is bytes
        and type(signature) is bytes
        and len(public_key) == PUBLIC_KEY_BYTES
        and len(signature) == SIGNATURE_BYTES
        and public_key not in _SMALL_ORDER
    ):
        return False
    key = _new_public_key(_ED25519, None, public_key, PUBLIC_KEY_BYTES)
    if not key:
        return False
    ctx = None
    try:
        ctx = _ctx_new()
        return bool(
            ctx
            and _verify_init(ctx, None, None, None, key) == 1
            and _verify(ctx, signature, SIGNATURE_BYTES, message, len(message)) == 1
        )
    finally:
        if ctx:
            _ctx_free(ctx)
        _pkey_free(key)
