"""Modular exponentiation in the 2048-bit group, from the interpreter's own OpenSSL.

Binds, through :mod:`ctypes`, ``BN_mod_exp_mont_consttime`` of the
libcrypto that CPython's ``_hashlib`` is linked against, opened by
``_hashlib``'s own path as :mod:`repro.crypto.aes` opens it.  The library
is opened with :class:`ctypes.PyDLL`, so every call holds the GIL the way
``pow`` does: one exponentiation is one C call that no other thread
interleaves with.  If a symbol is missing, importing this module raises
:class:`ImportError` naming it; there is no fallback.

The modulus is :data:`~repro.crypto.sealing.MODP_P`, whose Montgomery
context is built once, at import.  :func:`mod_exp` checks that the base is
exactly ``int`` in ``[0, p)`` and the exponent exactly ``int`` in
``[0, 2^2048)`` (``bool`` and other subclasses are refused, as a subclass
could misreport its value) before C reads either, and checks every return
code.  The result equals ``pow(base, exponent, p)``.

What is constant-time is OpenSSL's exponentiation and nothing else: its
fixed-window walk over the exponent reads the table of powers with no
branch or memory address that depends on the exponent's bits.  Its
running time follows the exponent's length in 64-bit words, so the width
of a secret shows, as it does in any short-exponent scheme.  The
conversions between Python ``int`` and OpenSSL's bignums (``to_bytes``,
``from_bytes``), and any arithmetic a caller does around the call, are
CPython's variable-time integer code.
"""

from __future__ import annotations

import ctypes

import _hashlib

from repro.crypto.sealing import MODP_P

_MODULUS_BYTES = 256
_EXPONENT_BITS = 2048

_libcrypto = ctypes.PyDLL(_hashlib.__file__)


def _bind(name: str, restype, *argtypes):
    try:
        function = getattr(_libcrypto, name)
    except AttributeError as missing:
        raise ImportError(f"no {name} in {_hashlib.__file__}") from missing
    function.restype = restype
    function.argtypes = argtypes
    return function


_Pointer = ctypes.c_void_p
_bn_bin2bn = _bind("BN_bin2bn", _Pointer, ctypes.c_char_p, ctypes.c_int, _Pointer)
_bn_bn2binpad = _bind("BN_bn2binpad", ctypes.c_int, _Pointer, ctypes.c_char_p, ctypes.c_int)
_bn_new = _bind("BN_new", _Pointer)
_bn_clear_free = _bind("BN_clear_free", None, _Pointer)
_ctx_new = _bind("BN_CTX_new", _Pointer)
_ctx_free = _bind("BN_CTX_free", None, _Pointer)
_mont_new = _bind("BN_MONT_CTX_new", _Pointer)
_mont_set = _bind("BN_MONT_CTX_set", ctypes.c_int, _Pointer, _Pointer, _Pointer)
_mod_exp = _bind(
    "BN_mod_exp_mont_consttime",
    ctypes.c_int,
    _Pointer, _Pointer, _Pointer, _Pointer, _Pointer, _Pointer,
)


def _bignum(value: bytes) -> int:
    """A fresh ``BIGNUM`` holding the big-endian ``value``; the caller frees it."""
    pointer = _bn_bin2bn(value, len(value), None)
    if not pointer:
        raise MemoryError("BN_bin2bn failed")
    return pointer


def _context() -> int:
    pointer = _ctx_new()
    if not pointer:
        raise MemoryError("BN_CTX_new failed")
    return pointer


def _montgomery() -> tuple[int, int]:
    """The modulus as a ``BIGNUM`` and its ``BN_MONT_CTX``, kept for the process."""
    modulus = _bignum(MODP_P.to_bytes(_MODULUS_BYTES, "big"))
    mont = _mont_new()
    if not mont:
        raise MemoryError("BN_MONT_CTX_new failed")
    ctx = _context()
    try:
        if _mont_set(mont, modulus, ctx) != 1:
            raise RuntimeError("BN_MONT_CTX_set failed")
    finally:
        _ctx_free(ctx)
    return modulus, mont


_MODULUS, _MONT = _montgomery()


def mod_exp(base: int, exponent: int) -> int:
    """``base^exponent mod p`` for ``0 <= base < p`` and ``0 <= exponent < 2^2048``.

    ``TypeError`` for anything but an exact ``int``, ``ValueError`` outside
    the ranges; both before OpenSSL sees the value.
    """
    if type(base) is not int or type(exponent) is not int:
        raise TypeError(
            f"mod_exp takes int, got {type(base).__name__} and {type(exponent).__name__}"
        )
    if not 0 <= base < MODP_P:
        raise ValueError("base outside [0, p)")
    if exponent >> _EXPONENT_BITS:  # nonzero for a negative exponent too
        raise ValueError(f"exponent outside [0, 2^{_EXPONENT_BITS})")
    base_bytes = base.to_bytes(_MODULUS_BYTES, "big")
    exponent_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
    out = ctypes.create_string_buffer(_MODULUS_BYTES)
    ctx = _context()
    base_bn = exponent_bn = result_bn = None
    try:
        base_bn = _bignum(base_bytes)
        exponent_bn = _bignum(exponent_bytes)
        result_bn = _bn_new()
        if not result_bn:
            raise MemoryError("BN_new failed")
        if _mod_exp(result_bn, base_bn, exponent_bn, _MODULUS, ctx, _MONT) != 1:
            raise RuntimeError("BN_mod_exp_mont_consttime failed")
        if _bn_bn2binpad(result_bn, out, _MODULUS_BYTES) != _MODULUS_BYTES:
            raise RuntimeError("BN_bn2binpad failed")
    finally:
        for pointer in (base_bn, exponent_bn, result_bn):
            if pointer:
                _bn_clear_free(pointer)
        _ctx_free(ctx)
    return int.from_bytes(out.raw, "big")
