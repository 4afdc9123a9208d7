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

Cost.  Every exponentiation — ``g^x`` in :attr:`SigningKey.public`, the
nonce's ``g^k`` in :meth:`SigningKey.sign`, and ``g^s`` and ``y^e`` in
:func:`verify` — is one call of :func:`repro.crypto.modexp.mod_exp`,
OpenSSL's Montgomery exponentiation, equal to ``pow`` bit for bit.  Best
of 25 on the 2-core box (CPython 3.11, OpenSSL 3.0), in one window with
CPython's ``pow``: a 511-bit secret's ``g^x`` ~0.8 ms, a full-width
``g^k`` ~3.0 ms (``pow`` ~30), a 256-bit ``y^e`` ~0.4 ms (``pow`` ~4.6).
A :meth:`~SigningKey.sign` is ~3.1 ms and a :func:`verify` ~3.8 ms, where
two fixed-base combs and ``pow`` took ~7.5 and ~13.  No table is built at
import.

What is constant-time is OpenSSL's exponentiation only (see
:mod:`repro.crypto.modexp`): the conversions of each operand between
Python ``int`` and OpenSSL's bignums, the challenge hash and
``s = k + e·x mod q`` run on CPython's variable-time integers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.modexp import mod_exp
from repro.crypto.sealing import MODP_P

GROUP_ORDER = (MODP_P - 1) // 2  # prime q
GENERATOR = 4  # 2^2 is a quadratic residue, generates the order-q subgroup
# RFC 7919 §5.2 asks for >= 225 in this group; see the module docstring.
_SECRET_BITS = 511


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
            object.__setattr__(self, "_public", mod_exp(GENERATOR, self.secret))
        return self._public

    def sign(self, message: bytes, rng) -> "Signature":
        nonce = rng.randrange(1, GROUP_ORDER)
        commitment = mod_exp(GENERATOR, nonce)
        challenge = _challenge(commitment, message)
        response = (nonce + challenge * self.secret) % GROUP_ORDER
        return Signature(commitment=commitment, response=response)


@dataclass(frozen=True)
class Signature:
    commitment: int
    response: int


def _is_int_in(value, low: int, high: int) -> bool:
    return type(value) is int and low <= value < high


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
    left = mod_exp(GENERATOR, signature.response)
    right = (signature.commitment * mod_exp(public_key, challenge)) % MODP_P
    return left == right


def _challenge(commitment: int, message: bytes) -> int:
    digest = hashlib.blake2s(
        commitment.to_bytes(256, "big") + message, digest_size=32
    ).digest()
    return int.from_bytes(digest, "big") % GROUP_ORDER
