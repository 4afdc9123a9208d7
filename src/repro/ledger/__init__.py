"""Ledger substrate: a Sui-like object-centric blockchain simulation.

Owned/shared objects with versions, atomic programmable transactions with
rollback, gas accounting (computation buckets + storage bytes + 99 %
rebates), a validator-committee latency model distinguishing the fast path
from consensus, accounts, and coins.
"""

from repro.ledger.accounts import (
    COIN_TYPE,
    MIST_PER_SUI,
    Account,
    address_of,
    sui_to_mist,
)
from repro.ledger.chain import Ledger
from repro.ledger.committee import Committee
from repro.ledger.executor import LedgerExecutor, SubmittedTransaction
from repro.ledger.gas import (
    COMPUTATION_PRICE_SUI,
    STORAGE_PRICE_SUI,
    SUI_PRICE_USD,
    GasMeter,
    GasSummary,
    computation_bucket,
)
from repro.ledger.objects import LedgerObject, Ownership, canonical_size
from repro.ledger.transactions import (
    Command,
    Event,
    Result,
    Transaction,
    TransactionEffects,
)

__all__ = [
    "COIN_TYPE",
    "MIST_PER_SUI",
    "Account",
    "address_of",
    "sui_to_mist",
    "Ledger",
    "Committee",
    "LedgerExecutor",
    "SubmittedTransaction",
    "COMPUTATION_PRICE_SUI",
    "STORAGE_PRICE_SUI",
    "SUI_PRICE_USD",
    "GasMeter",
    "GasSummary",
    "computation_bucket",
    "LedgerObject",
    "Ownership",
    "canonical_size",
    "Command",
    "Event",
    "Result",
    "Transaction",
    "TransactionEffects",
]
