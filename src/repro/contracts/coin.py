"""Coin contract: the payment token of the bandwidth market.

Coins are owned objects with an integer MIST balance (1 SUI = 1e9 MIST).
The faucet ``mint`` stands in for acquiring SUI out of band; ``merge``
folds a host's coins into one.  The market debits a payment coin inside its
own calls, so no other coin operation has a caller.
"""

from __future__ import annotations

from repro.contracts.framework import CallContext, Contract
from repro.ledger.accounts import COIN_TYPE


class CoinContract(Contract):
    name = "coin"

    def mint(self, ctx: CallContext, amount: int) -> dict:
        """Faucet: create a coin with ``amount`` MIST owned by the sender."""
        ctx.require(amount > 0, "mint amount must be positive")
        coin = ctx.create_object(COIN_TYPE, {"balance": int(amount)})
        return {"coin": coin.object_id}

    def merge(self, ctx: CallContext, coin: str, other: str) -> dict:
        """Merge ``other`` into ``coin`` and delete it."""
        target = ctx.take_owned(coin, COIN_TYPE)
        source = ctx.take_owned(other, COIN_TYPE)
        target.payload["balance"] += source.payload["balance"]
        ctx.mutate(target)
        ctx.delete_object(source)
        return {"coin": target.object_id}


def coin_balance(ledger, owner: str) -> int:
    """Total MIST owned by ``owner`` (test/bench helper)."""
    return sum(
        obj.payload["balance"] for obj in ledger.objects_owned_by(owner, COIN_TYPE)
    )
