"""Accounts and coins: addresses, keypairs, SUI-denominated payments.

Addresses are hashes of Schnorr public keys.  Payments on the marketplace
flow through ``Coin`` objects (owned objects with an integer MIST balance,
1 SUI = 1e9 MIST), so buying an asset has the same object-churn profile as
on the real chain.  Gas, by contrast, is accounted out-of-band by the gas
meter (modelling the gas coin would only add a constant mutation per
transaction; documented simplification).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.crypto.signatures import SigningKey

MIST_PER_SUI = 1_000_000_000
COIN_TYPE = "coin::Coin"


def address_of(public_key: int) -> str:
    """Derive a 32-byte address (hex) from a Schnorr public key."""
    return hashlib.blake2s(public_key.to_bytes(256, "big"), digest_size=32).hexdigest()


@dataclass(frozen=True)
class Account:
    """A ledger participant: signing key and the address derived from it.

    Frozen, so the memoised address cannot outlive the key it was derived from.
    """

    signing_key: SigningKey
    name: str = ""
    # derived from signing_key on first use; every Transaction(sender=...) reads it
    _address: str | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def generate(rng: random.Random, name: str = "") -> "Account":
        return Account(signing_key=SigningKey.generate(rng), name=name)

    @property
    def address(self) -> str:
        if self._address is None:
            object.__setattr__(self, "_address", address_of(self.signing_key.public))
        return self._address


def sui_to_mist(sui: float) -> int:
    return int(round(sui * MIST_PER_SUI))


def mist_to_sui(mist: int) -> float:
    return mist / MIST_PER_SUI
