"""Contract runtime: execution views, call contexts, aborts.

(Ledger-side module; :mod:`repro.contracts.framework` re-exports it.)

Contracts execute against a *copy-on-write view* of the ledger: objects are
copied into the view on first touch, creations and deletions are staged, and
nothing reaches the authoritative store unless every command of the
transaction succeeds.  A :class:`ContractAbort` raised anywhere rolls the
whole transaction back — the mechanism behind atomic path purchases.

Access control mirrors the object model: an OWNED object can only be taken
by its owner (the transaction sender), or by contract code operating on a
container object that owns it (e.g. listed assets owned by the marketplace).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any

from repro.ledger.gas import GasMeter
from repro.ledger.objects import LedgerObject, Ownership, fresh_object_id


class ContractAbort(Exception):
    """Raised by contract code: aborts and rolls back the transaction."""


@dataclass
class ExecutionView:
    """Copy-on-write overlay over the authoritative object store."""

    base: dict[str, LedgerObject]
    staged: dict[str, LedgerObject] = field(default_factory=dict)
    created_ids: list[str] = field(default_factory=list)
    deleted_ids: list[str] = field(default_factory=list)

    def get(self, object_id: str) -> LedgerObject:
        if object_id in self.deleted_ids:
            raise ContractAbort(f"object {object_id[:8]}... was deleted")
        if object_id not in self.staged:
            base_object = self.base.get(object_id)
            if base_object is None:
                raise ContractAbort(f"object {object_id[:8]}... does not exist")
            self.staged[object_id] = base_object.copy()
        return self.staged[object_id]

    def create(self, ledger_object: LedgerObject) -> None:
        self.staged[ledger_object.object_id] = ledger_object
        self.created_ids.append(ledger_object.object_id)

    def delete(self, object_id: str) -> None:
        self.get(object_id)  # materialize + existence check
        if object_id in self.created_ids:
            # Created and deleted within the same transaction: no trace.
            self.created_ids.remove(object_id)
            del self.staged[object_id]
            return
        self.deleted_ids.append(object_id)
        self.staged.pop(object_id, None)


class CallContext:
    """What contract code sees: object ops, gas charging, events, identity."""

    def __init__(
        self,
        view: ExecutionView,
        sender: str,
        gas: GasMeter,
        tx_digest: str,
        now: float,
    ) -> None:
        self.view = view
        self.sender = sender
        self.gas = gas
        self.tx_digest = tx_digest
        self.now = now
        self.events: list[tuple[str, dict]] = []
        self._fresh_counter = 0
        self._mutated: set[str] = set()

    # -- object operations ---------------------------------------------------

    def create_object(
        self,
        type_tag: str,
        payload: dict,
        ownership: Ownership = Ownership.OWNED,
        owner: str | None = None,
    ) -> LedgerObject:
        if ownership is Ownership.OWNED and owner is None:
            owner = self.sender
        self._fresh_counter += 1
        object_id = fresh_object_id(
            f"{self.tx_digest}:{self._fresh_counter}".encode()
        )
        ledger_object = LedgerObject(
            object_id=object_id,
            type_tag=type_tag,
            ownership=ownership,
            owner=owner if ownership is Ownership.OWNED else None,
        )
        ledger_object.payload = payload
        self.view.create(ledger_object)
        self.gas.charge_create(ledger_object.serialized_size())
        return ledger_object

    def take_owned(
        self, object_id: str, type_tag: str | None = None, owner: str | None = None
    ) -> LedgerObject:
        """Fetch an OWNED object, enforcing ownership (sender by default)."""
        ledger_object = self.view.get(object_id)
        if ledger_object.ownership is not Ownership.OWNED:
            raise ContractAbort(f"object {object_id[:8]}... is not owned")
        expected_owner = self.sender if owner is None else owner
        if ledger_object.owner != expected_owner:
            raise ContractAbort(
                f"object {object_id[:8]}... is not owned by {expected_owner[:8]}..."
            )
        if type_tag is not None and ledger_object.type_tag != type_tag:
            raise ContractAbort(
                f"expected {type_tag}, found {ledger_object.type_tag}"
            )
        return ledger_object

    def take_shared(self, object_id: str, type_tag: str) -> LedgerObject:
        ledger_object = self.view.get(object_id)
        if ledger_object.ownership is not Ownership.SHARED:
            raise ContractAbort(f"object {object_id[:8]}... is not shared")
        if ledger_object.type_tag != type_tag:
            raise ContractAbort(
                f"expected {type_tag}, found {ledger_object.type_tag}"
            )
        return ledger_object

    def mutate(self, ledger_object: LedgerObject) -> None:
        """Record a new version of an object (storage: charge new, rebate old)."""
        if ledger_object.object_id in self.view.created_ids:
            return  # created in this transaction; storage charged at commit size
        if ledger_object.object_id in self._mutated:
            return  # one version bump per transaction
        self._mutated.add(ledger_object.object_id)
        # The superseded version is the committed one in ``view.base``.
        committed = self.view.base.get(ledger_object.object_id, ledger_object)
        old_size = committed.serialized_size()
        ledger_object.version += 1
        self.gas.charge_mutate(old_size, ledger_object.serialized_size())

    def transfer(self, ledger_object: LedgerObject, new_owner: str) -> None:
        if ledger_object.ownership is not Ownership.OWNED:
            raise ContractAbort("only owned objects can be transferred")
        ledger_object.owner = new_owner
        self.gas.charge_transfer()
        self.mutate(ledger_object)

    def delete_object(self, ledger_object: LedgerObject) -> None:
        committed = self.view.base.get(ledger_object.object_id, ledger_object)
        size = committed.serialized_size()
        self.view.delete(ledger_object.object_id)
        self.gas.charge_delete(size)

    # -- events ---------------------------------------------------------------

    def emit(self, event_type: str, payload: dict) -> None:
        self.events.append((event_type, payload))

    # -- assertions -------------------------------------------------------------

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ContractAbort(message)


def _is_int(value) -> bool:
    return type(value) is int


# Parameter annotation (contract modules spell them as strings: ``from
# __future__ import annotations``) -> what a sender's value has to be.
_INTEGER = {
    "int": _is_int,
    "int | None": lambda value: value is None or _is_int(value),
    "list[int] | None": lambda value: value is None
    or (type(value) is list and all(map(_is_int, value))),
}


class Contract:
    """Base class for on-chain contracts.

    Public methods a contract class defines, taking ``(ctx, **kwargs)``, are
    callable from transactions; they must return a dict of named results
    (possibly empty) that later commands can reference.
    """

    name: str = "contract"

    def dispatch(self, function: str, ctx: CallContext, args: dict[str, Any]) -> dict:
        """Call ``function`` with a transaction's arguments.

        Function name and arguments are the sender's choice: whatever is
        wrong with them — a private or inherited name, a missing or
        misspelled argument, a value of the wrong type — is the sender's
        abort, never an exception out of the executor.  A parameter the
        handler annotates ``int`` (``int | None``, ``list[int] | None``)
        takes exactly that and nothing that merely compares like an
        integer: a ``float`` would mint half a MIST, ``inf`` overflow on its
        way to one, ``True`` count as a kbps.
        """
        if function.startswith("_"):
            raise ContractAbort(f"function {function!r} is private")
        handler = getattr(type(self), function, None)
        # what the base class has (``dispatch`` itself) is not an entry point
        if not inspect.isfunction(handler) or hasattr(Contract, function):
            raise ContractAbort(f"{self.name} has no function {function!r}")
        ctx.gas.charge_call()
        try:
            for name, value in args.items():
                wanted = handler.__annotations__.get(name)
                if wanted in _INTEGER and not _INTEGER[wanted](value):
                    raise TypeError(f"{name!r} must be {wanted}")
            result = handler(self, ctx, **args)
        except TypeError as mismatch:
            given = ", ".join(
                f"{key}={type(value).__name__}" for key, value in args.items()
            )
            raise ContractAbort(
                f"{self.name}.{function}({given}): {mismatch}"
            ) from None
        return result if result is not None else {}
