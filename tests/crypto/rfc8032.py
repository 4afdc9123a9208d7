"""A pure-Python Ed25519 (RFC 8032 §5.1), the differential oracle of
``tests/crypto/test_signatures.py``.

Written from the RFC's text, in affine-free extended coordinates, with no
call into OpenSSL: SHA-512 is CPython's own built-in module (``_sha2`` from
3.12, ``_sha512`` before), not ``hashlib``, which hands it to OpenSSL.
Slow (a few ms a scalar multiplication) and variable-time; a test tool only.
"""

from __future__ import annotations

try:
    from _sha2 import sha512
except ImportError:  # CPython < 3.12
    from _sha512 import sha512

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493  # the prime order of B
D = -121665 * pow(121666, -1, P) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)

IDENTITY = (0, 1, 1, 0)  # extended (X, Y, Z, T), x = X/Z, y = Y/Z, xy = T/Z


def _add(a, b):
    """RFC 8032 §5.1.4, add-2008-hwcd-3: complete, so doubling is adding."""
    x1, y1, z1, t1 = a
    x2, y2, z2, t2 = b
    aa = (y1 - x1) * (y2 - x2) % P
    bb = (y1 + x1) * (y2 + x2) % P
    cc = 2 * t1 * t2 * D % P
    dd = 2 * z1 * z2 % P
    e, f, g, h = bb - aa, dd - cc, dd + cc, bb + aa
    return e * f % P, g * h % P, f * g % P, e * h % P


def multiply(scalar: int, point):
    result = IDENTITY
    while scalar:
        if scalar & 1:
            result = _add(result, point)
        point = _add(point, point)
        scalar >>= 1
    return result


def equal(a, b) -> bool:
    x1, y1, z1, _ = a
    x2, y2, z2, _ = b
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _recover_x(y: int, sign: int) -> int | None:
    """§5.1.3 steps 2-4: x from y and its sign bit, or None if there is none."""
    if y >= P:
        return None
    x2 = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    if x2 == 0:
        return None if sign else 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * SQRT_M1 % P
    if (x * x - x2) % P:
        return None
    return P - x if (x & 1) != sign else x


def decode(encoding: bytes, *, canonical: bool = True):
    """§5.1.3; ``canonical=False`` reduces ``y >= p`` instead of refusing it."""
    value = int.from_bytes(encoding, "little")
    y, sign = value & ((1 << 255) - 1), value >> 255
    if not canonical:
        y %= P
    x = _recover_x(y, sign)
    return None if x is None else (x, y, 1, x * y % P)


def encode(point) -> bytes:
    x, y, z, _ = point
    inverse = pow(z, -1, P)
    x, y = x * inverse % P, y * inverse % P
    return (y | (x & 1) << 255).to_bytes(32, "little")


B = decode((4 * pow(5, -1, P) % P).to_bytes(32, "little"))  # y = 4/5, x even


def _hash_int(*parts: bytes) -> int:
    return int.from_bytes(sha512(b"".join(parts)).digest(), "little")


def _expand(seed: bytes) -> tuple[int, bytes]:
    digest = sha512(seed).digest()
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8  # clear the low three bits and bit 255
    scalar |= 1 << 254
    return scalar, digest[32:]


def public_key(seed: bytes) -> bytes:
    """§5.1.5."""
    return encode(multiply(_expand(seed)[0], B))


def sign(seed: bytes, message: bytes) -> bytes:
    """§5.1.6."""
    scalar, prefix = _expand(seed)
    public = encode(multiply(scalar, B))
    r = _hash_int(prefix, message) % L
    big_r = encode(multiply(r, B))
    s = (r + _hash_int(big_r, public, message) * scalar) % L
    return big_r + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """§5.1.7, cofactored: ``[8][S]B = [8]R + [8][k]A``."""
    if len(public) != 32 or len(signature) != 64:
        return False
    a, r = decode(public), decode(signature[:32])
    s = int.from_bytes(signature[32:], "little")
    if a is None or r is None or s >= L:
        return False
    k = _hash_int(signature[:32], public, message) % L
    return equal(multiply(8 * s, B), _add(multiply(8, r), multiply(8 * k, a)))


def small_order_encodings() -> list[bytes]:
    """Every 32-byte string that decodes, reducing ``y`` mod ``p``, to a
    point of order dividing 8: both sign bits of each torsion point's ``y``,
    and of ``y + p`` where that still fits in 255 bits.

    The torsion points are found, not typed in: ``[L]`` of any curve point
    lies in the order-8 subgroup, and one of order exactly 8 generates it.
    """
    y = 2
    while True:
        point = decode(y.to_bytes(32, "little"))
        if point is not None:
            torsion = multiply(L, point)
            if not equal(multiply(4, torsion), IDENTITY):
                break  # of order 8
        y += 1
    ys = set()
    for multiple in range(8):
        ys.add(int.from_bytes(encode(multiply(multiple, torsion)), "little") & ((1 << 255) - 1))
    ys |= {y + P for y in ys if y + P < 1 << 255}
    return sorted((y | sign << 255).to_bytes(32, "little") for y in ys for sign in (0, 1))
