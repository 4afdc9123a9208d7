"""Transactions: atomic, programmable sequences of contract calls.

A transaction bundles one or more *commands* (contract calls) that execute
atomically: state changes apply only if every command succeeds (§3.3,
"Atomic End-to-End Guarantees").  Later commands can reference values
returned by earlier ones through :class:`Result` placeholders — this is how
a single transaction buys the ingress asset, buys the egress asset, and
redeems the pair for every hop of a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.ledger.gas import GasSummary


@dataclass(frozen=True)
class Result:
    """Placeholder for a value returned by an earlier command.

    ``Result(2, "asset")`` resolves to ``returns[2]["asset"]`` at execution
    time.
    """

    command_index: int
    key: str


@dataclass
class Command:
    """One contract call: ``contract.function(**args)``."""

    contract: str
    function: str
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class Transaction:
    """An atomic batch of commands signed by ``sender``."""

    sender: str
    commands: list[Command]

    def __post_init__(self) -> None:
        if not self.commands:
            raise ValueError("a transaction needs at least one command")


@dataclass(frozen=True)
class Event:
    """A contract-emitted event, observable by off-chain clients."""

    event_type: str
    payload: dict
    tx_digest: str
    checkpoint: int


@dataclass
class TransactionEffects:
    """The outcome of executing one transaction."""

    tx_digest: str
    status: str  # "success" | "abort"
    error: str | None
    gas: GasSummary
    created: list[str]
    mutated: list[str]
    deleted: list[str]
    events: list[Event]
    returns: list[dict]
    touches_shared: bool

    @property
    def ok(self) -> bool:
        return self.status == "success"


def resolve_args(args: dict[str, Any], returns: list[dict]) -> dict[str, Any]:
    """Replace :class:`Result` placeholders with concrete earlier returns."""

    def resolve(value: Any) -> Any:
        if isinstance(value, Result):
            if value.command_index >= len(returns):
                raise ValueError(
                    f"Result references command {value.command_index}, "
                    f"but only {len(returns)} executed"
                )
            try:
                return returns[value.command_index][value.key]
            except KeyError:
                raise ValueError(
                    f"command {value.command_index} returned no {value.key!r}"
                ) from None
        if isinstance(value, list):
            return [resolve(item) for item in value]
        if isinstance(value, dict):
            return {key: resolve(val) for key, val in value.items()}
        return value

    if not isinstance(args, dict):
        raise ValueError(f"command arguments must be a dict, not {type(args).__name__}")
    return {key: resolve(value) for key, value in args.items()}
