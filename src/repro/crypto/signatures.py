"""Schnorr signatures over the quadratic-residue subgroup of a safe prime.

Used for AS registration on the control plane (§4.2): an AS proves
possession of the private key matching its CP-PKI certificate before the
asset contract issues it an authorization token, and signs its certificate
bundle.  Implemented from scratch like the rest of the crypto substrate.

The group is QR(p) for the RFC 3526 2048-bit safe prime ``p = 2q + 1``;
``g = 4`` generates the order-``q`` subgroup.  Standard Schnorr:
``r = g^k``, ``e = H(r || m)``, ``s = k + e·x mod q``; verification checks
``g^s == r · y^e``.

Cost.  Three of the four exponentiations here raise the constant ``g``:
:attr:`SigningKey.public`, the commitment in :meth:`SigningKey.sign` and
``g^s`` in :func:`verify` go through a fixed-base comb
(:mod:`repro.crypto.fixedbase`) sized for a full-width exponent below
``q``: 512 products of ``g^(2^(228·row))`` built once, when this module is
imported, then 228 squarings and at most 228 multiplications where ``pow``
spends 2,046 squarings — ~22.4 → ~5.6 ms, the same integer.  It is a
second table, not :mod:`repro.crypto.sealing`'s: a comb costs its full
column count whatever the exponent, so one table wide enough for ``q``
would double the cost of every 1024-bit Diffie-Hellman key.  This one
builds in ~28 ms and holds ~0.16 MB (both: ~46 ms and ~0.3 MB, paid in
set-up by anything that imports the control plane).  ``y^e`` in
:func:`verify` has a different base every call and a 256-bit exponent; it
stays on ``pow``.  No constant-time claim: the comb skips the
multiplication of an all-zero column, and CPython's ``pow`` is not
constant-time either.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.fixedbase import FixedBase
from repro.crypto.sealing import MODP_P

GROUP_ORDER = (MODP_P - 1) // 2  # prime q
GENERATOR = 4  # 2^2 is a quadratic residue, generates the order-q subgroup
# Built at import, not on first use: the first registration of a process is timed too.
_G_POW = FixedBase(GENERATOR, MODP_P, GROUP_ORDER.bit_length()).pow


@dataclass(frozen=True)
class SigningKey:
    """A Schnorr private key (exponent in [1, q)).

    Secret and nonce stay uniform in ``[1, q)``: unlike a Diffie-Hellman
    exponent, a nonce shorter than ``q`` leaks the key through the response
    ``s = k + e·x`` (hidden-number problem), so nothing here is shortened.
    """

    secret: int
    # g^secret, computed on first use; invisible to ==, hash and repr
    _public: int | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def generate(rng) -> "SigningKey":
        return SigningKey(rng.randrange(1, GROUP_ORDER))

    @property
    def public(self) -> int:
        if self._public is None:
            object.__setattr__(self, "_public", _G_POW(self.secret))
        return self._public

    def sign(self, message: bytes, rng) -> "Signature":
        nonce = rng.randrange(1, GROUP_ORDER)
        commitment = _G_POW(nonce)
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
    left = _G_POW(signature.response)
    right = (signature.commitment * pow(public_key, challenge, MODP_P)) % MODP_P
    return left == right


def _challenge(commitment: int, message: bytes) -> int:
    digest = hashlib.blake2s(
        commitment.to_bytes(256, "big") + message, digest_size=32
    ).digest()
    return int.from_bytes(digest, "big") % GROUP_ORDER
