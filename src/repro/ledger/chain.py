"""The ledger: authoritative object store, transaction execution, events.

Executes :class:`Transaction` batches atomically against the object store
through the contract runtime, accounts gas, appends events to the public
stream, and advances the checkpoint counter.  Latency is *not* modelled
here — :mod:`repro.ledger.executor` wraps the ledger with the validator-
committee timing model.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.ledger.runtime import CallContext, Contract, ContractAbort, ExecutionView
from repro.ledger.gas import GasMeter, GasSummary, computation_bucket
from repro.ledger.objects import LedgerObject, Ownership
from repro.ledger.transactions import (
    Event,
    Transaction,
    TransactionEffects,
    resolve_args,
)


@dataclass
class Ledger:
    """In-memory ledger state with registered contracts."""

    objects: dict[str, LedgerObject] = field(default_factory=dict)
    contracts: dict[str, Contract] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    checkpoint: int = 0
    now: float = 0.0
    _tx_counter: itertools.count = field(default_factory=itertools.count)

    def register_contract(self, contract: Contract) -> None:
        if contract.name in self.contracts:
            raise ValueError(f"contract {contract.name!r} already registered")
        self.contracts[contract.name] = contract

    # -- queries ---------------------------------------------------------------

    def get_object(self, object_id: str) -> LedgerObject:
        try:
            return self.objects[object_id]
        except KeyError:
            raise KeyError(f"unknown object {object_id[:8]}...") from None

    def objects_owned_by(self, owner: str, type_tag: str | None = None) -> list[LedgerObject]:
        return [
            obj
            for obj in self.objects.values()
            if obj.ownership is Ownership.OWNED
            and obj.owner == owner
            and (type_tag is None or obj.type_tag == type_tag)
        ]

    def events_since(self, checkpoint: int, *event_types: str) -> list[Event]:
        """Events after ``checkpoint``, of the given types (all, given none)."""
        return [
            event
            for event in self.events
            if event.checkpoint > checkpoint
            and (not event_types or event.event_type in event_types)
        ]

    # -- execution ---------------------------------------------------------------

    def execute(self, transaction: Transaction) -> TransactionEffects:
        """Run all commands atomically; commit on success, discard on abort."""
        tx_digest = self._digest(transaction)
        view = ExecutionView(base=self.objects)
        gas = GasMeter()
        ctx = CallContext(view, transaction.sender, gas, tx_digest, self.now)
        returns: list[dict] = []
        touches_shared = False
        try:
            for command in transaction.commands:
                contract = self.contracts.get(command.contract)
                if contract is None:
                    raise ContractAbort(f"unknown contract {command.contract!r}")
                args = resolve_args(command.args, returns)
                shared_before = self._counts_shared(view, args)
                returns.append(contract.dispatch(command.function, ctx, args))
                touches_shared = touches_shared or shared_before
        except (ContractAbort, ValueError) as abort:
            # Aborted transactions still pay computation (but no storage
            # changes happen, so there is nothing to charge or rebate).
            summary = GasSummary(
                computation_units=computation_bucket(gas.raw_units),
                storage_bytes=0,
                rebate_bytes=0,
            )
            self.checkpoint += 1
            return TransactionEffects(
                tx_digest=tx_digest,
                status="abort",
                error=str(abort),
                gas=summary,
                created=[],
                mutated=[],
                deleted=[],
                events=[],
                returns=returns,
                touches_shared=touches_shared,
            )

        # Commit.
        self.checkpoint += 1
        mutated = [
            object_id
            for object_id, staged in view.staged.items()
            if object_id not in view.created_ids
            and object_id in self.objects
            and staged.version > self.objects[object_id].version
        ]
        for object_id, staged in view.staged.items():
            self.objects[object_id] = staged
        for object_id in view.deleted_ids:
            self.objects.pop(object_id, None)
        events = [
            Event(event_type, payload, tx_digest, self.checkpoint)
            for event_type, payload in ctx.events
        ]
        self.events.extend(events)
        return TransactionEffects(
            tx_digest=tx_digest,
            status="success",
            error=None,
            gas=gas.summary(),
            created=list(view.created_ids),
            mutated=mutated,
            deleted=list(view.deleted_ids),
            events=events,
            returns=returns,
            touches_shared=touches_shared,
        )

    # -- helpers ---------------------------------------------------------------

    def _digest(self, transaction: Transaction) -> str:
        index = next(self._tx_counter)
        material = f"{index}:{transaction.sender}:{len(transaction.commands)}"
        return hashlib.blake2s(material.encode(), digest_size=32).hexdigest()

    def _counts_shared(self, view: ExecutionView, args: dict) -> bool:
        """Shared-object detection: any argument naming a shared object.

        Reads the store without materializing anything into the view so a
        mere inspection does not count as an object touch.
        """
        for value in args.values():
            if not isinstance(value, str):
                continue
            staged = view.staged.get(value) or view.base.get(value)
            if staged is not None and staged.ownership is Ownership.SHARED:
                return True
        return False
