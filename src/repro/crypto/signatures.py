"""Schnorr signatures over the quadratic-residue subgroup of a safe prime.

Used for AS registration on the control plane (§4.2): an AS proves
possession of the private key matching its CP-PKI certificate before the
asset contract issues it an authorization token, and signs its certificate
bundle.  Implemented from scratch, like everything in the crypto substrate
but the AES block cipher.

The group is QR(p) for the RFC 3526 2048-bit safe prime ``p = 2q + 1``;
``g = 4`` generates the order-``q`` subgroup.  Standard Schnorr:
``r = g^k``, ``e = H(r || m)``, ``s = k + e·x mod q``; verification checks
``g^s == r · y^e``.

Secrets are short, nonces are not.  :meth:`SigningKey.generate` draws the
secret from ``[2^(_SECRET_BITS-1), 2^_SECRET_BITS)``, 511 bits: recovering
an exponent known to lie in an interval of width ``2^510`` takes a kangaroo
walk of ~``2^255`` steps, far above the ~112 bits the 2048-bit group offers
anyway (the RFC 7919 §5.2 floor of 225 bits holds here as it does for a
Diffie-Hellman secret).  A signature leaks nothing more: the nonce ``k``
stays uniform in ``[1, q)``, so ``s = k + e·x mod q`` is uniform whatever
``x`` is.  A *short nonce* would be a break — ``s`` then leaks the top bits
of ``k``, a textbook hidden-number key recovery — so nothing shortens it.

Cost.  Every power of ``g`` goes through :func:`_g_pow`, which picks one of
two fixed-base combs (:mod:`repro.crypto.fixedbase`) by the exponent's
width; both equal ``pow`` bit for bit.

* Below ``2^_SECRET_BITS`` — every secret :meth:`SigningKey.generate`
  draws, so every :attr:`SigningKey.public` and every account address —
  ``g^x`` is ``2^(2x)`` through :mod:`repro.crypto.sealing`'s comb, which is
  sized for 512-bit exponents of 2: 57 columns, ~1.3 ms.  ``_SECRET_BITS``
  is that comb's width less the doubling, and follows it.
* Wider — the nonce in :meth:`SigningKey.sign`, almost every ``g^s`` in
  :func:`verify`, a key built from any secret below ``q`` — goes through
  this module's own table, sized for ``q``: 512 products of
  ``g^(2^(228·row))`` built at import, then 228 squarings and at most 228
  multiplications where ``pow`` spends 2,046 squarings, ~22.4 → ~5.6 ms.
  It builds in ~28 ms and holds ~0.16 MB.

A fresh identity (one ``SigningKey.public``) is thus ~1.3 ms where a
full-width secret costs ~5.6.  ``y^e`` in :func:`verify` has a different
base every call and a 256-bit exponent; it stays on ``pow``.  No
constant-time claim: the comb skips the multiplication of an all-zero
column, and CPython's ``pow`` is not constant-time either.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.fixedbase import FixedBase
from repro.crypto.sealing import _G_POW as _SEALING_G_POW
from repro.crypto.sealing import _SECRET_BITS as _SEALING_BITS
from repro.crypto.sealing import MODP_P

GROUP_ORDER = (MODP_P - 1) // 2  # prime q
GENERATOR = 4  # 2^2 is a quadratic residue, generates the order-q subgroup
# 4^x = 2^(2x): a secret this wide, doubled, fits the sealing comb; see "Cost" above
_SECRET_BITS = _SEALING_BITS - 1
# Built at import, not on first use: the first registration of a process is timed too.
_G_POW = FixedBase(GENERATOR, MODP_P, GROUP_ORDER.bit_length()).pow


def _g_pow(exponent: int) -> int:
    """``g^exponent mod p``: as ``2^(2·exponent)`` through the sealing comb
    below ``2^_SECRET_BITS``, through the table sized for ``q`` above."""
    if exponent >> _SECRET_BITS:
        return _G_POW(exponent)
    return _SEALING_G_POW(exponent << 1)


@dataclass(frozen=True)
class SigningKey:
    """A Schnorr private key: any exponent in ``[1, q)`` signs and verifies.

    :meth:`generate` draws a short one; the nonce :meth:`sign` draws stays
    uniform in ``[1, q)`` (the module docstring says why only the secret
    is shortened).
    """

    secret: int
    # g^secret, computed on first use; invisible to ==, hash and repr
    _public: int | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def generate(rng) -> "SigningKey":
        """A secret ``_SECRET_BITS`` wide with the top bit set, from ``rng.randrange``."""
        return SigningKey(rng.randrange(1 << (_SECRET_BITS - 1), 1 << _SECRET_BITS))

    @property
    def public(self) -> int:
        if self._public is None:
            object.__setattr__(self, "_public", _g_pow(self.secret))
        return self._public

    def sign(self, message: bytes, rng) -> "Signature":
        nonce = rng.randrange(1, GROUP_ORDER)
        commitment = _g_pow(nonce)
        challenge = _challenge(commitment, message)
        response = (nonce + challenge * self.secret) % GROUP_ORDER
        return Signature(commitment=commitment, response=response)


@dataclass(frozen=True)
class Signature:
    commitment: int
    response: int


def _is_int_in(value, low: int, high: int) -> bool:
    return isinstance(value, int) and low <= value < high


def verify(public_key: int, message: bytes, signature: Signature) -> bool:
    """Check ``g^s == r * y^e (mod p)``; never raises.

    Key, commitment and response reach this from the ledger as
    transaction-supplied values (``AssetContract.register_as``), so anything
    but an integer with ``1 < y < p``, ``1 <= r < p`` and ``0 <= s < q`` is
    ``False`` before any arithmetic: no ``OverflowError`` out of the hash
    input, no exponent whose length the sender chooses, and no second
    valid response ``s + q`` for the same signature.
    """
    if not (
        _is_int_in(public_key, 2, MODP_P)
        and _is_int_in(signature.commitment, 1, MODP_P)
        and _is_int_in(signature.response, 0, GROUP_ORDER)
    ):
        return False
    challenge = _challenge(signature.commitment, message)
    left = _g_pow(signature.response)
    right = (signature.commitment * pow(public_key, challenge, MODP_P)) % MODP_P
    return left == right


def _challenge(commitment: int, message: bytes) -> int:
    digest = hashlib.blake2s(
        commitment.to_bytes(256, "big") + message, digest_size=32
    ).digest()
    return int.from_bytes(digest, "big") % GROUP_ORDER
