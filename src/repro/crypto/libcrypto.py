"""The one opening of the libcrypto CPython's ``_hashlib`` links against.

:mod:`repro.crypto.aes` and :mod:`repro.crypto.signatures` bind every
OpenSSL call they make through :func:`bind`.  The library is opened by
``_hashlib``'s own path, so the symbols resolve through that extension's
dependencies and no second libcrypto is mapped, and with
:class:`ctypes.PyDLL`: one call is far shorter than releasing and taking back
the GIL around it.
"""

from __future__ import annotations

import ctypes

import _hashlib

LIBCRYPTO = ctypes.PyDLL(_hashlib.__file__)


def bind(name: str, restype, *argtypes):
    """The libcrypto function ``name``, its C signature set.

    Raises:
        ImportError: libcrypto has no ``name``; the message names it.
    """
    try:
        function = getattr(LIBCRYPTO, name)
    except AttributeError as missing:
        raise ImportError(f"no {name} in {_hashlib.__file__}") from missing
    function.restype = restype
    function.argtypes = argtypes
    return function
