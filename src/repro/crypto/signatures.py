"""Schnorr signatures over the quadratic-residue subgroup of a safe prime.

Used for AS registration on the control plane (§4.2): an AS proves
possession of the private key matching its CP-PKI certificate before the
asset contract issues it an authorization token, and signs its certificate
bundle.  Implemented from scratch like the rest of the crypto substrate.

The group is QR(p) for the RFC 3526 2048-bit safe prime ``p = 2q + 1``;
``g = 4`` generates the order-``q`` subgroup.  Standard Schnorr:
``r = g^k``, ``e = H(r || m)``, ``s = k + e·x mod q``; verification checks
``g^s == r · y^e``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.sealing import MODP_P

GROUP_ORDER = (MODP_P - 1) // 2  # prime q
GENERATOR = 4  # 2^2 is a quadratic residue, generates the order-q subgroup


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
            object.__setattr__(self, "_public", pow(GENERATOR, self.secret, MODP_P))
        return self._public

    def sign(self, message: bytes, rng) -> "Signature":
        nonce = rng.randrange(1, GROUP_ORDER)
        commitment = pow(GENERATOR, nonce, MODP_P)
        challenge = _challenge(commitment, message)
        response = (nonce + challenge * self.secret) % GROUP_ORDER
        return Signature(commitment=commitment, response=response)


@dataclass(frozen=True)
class Signature:
    commitment: int
    response: int


def verify(public_key: int, message: bytes, signature: Signature) -> bool:
    """Check ``g^s == r * y^e (mod p)``."""
    if not 1 < public_key < MODP_P:
        return False
    challenge = _challenge(signature.commitment, message)
    left = pow(GENERATOR, signature.response, MODP_P)
    right = (signature.commitment * pow(public_key, challenge, MODP_P)) % MODP_P
    return left == right


def _challenge(commitment: int, message: bytes) -> int:
    digest = hashlib.blake2s(
        commitment.to_bytes(256, "big") + message, digest_size=32
    ).digest()
    return int.from_bytes(digest, "big") % GROUP_ORDER
