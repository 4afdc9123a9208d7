"""Executor: ledger execution combined with the committee latency model.

Wraps a :class:`Ledger` and a :class:`Committee` and stamps every executed
transaction with a latency drawn from the appropriate path:

* transactions that only touch owned objects -> **fast path** (Byzantine
  consistent broadcast, §3.3/§6.1);
* transactions touching any shared object (the marketplace) -> **consensus**.

The executor also advances a simulation clock so reservation start times
and ledger timestamps stay consistent across a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Clock, SimClock
from repro.ledger.chain import Ledger
from repro.ledger.committee import Committee
from repro.ledger.transactions import Transaction, TransactionEffects
from repro.telemetry import get_registry
from repro.telemetry.tracing import current_trace


@dataclass
class SubmittedTransaction:
    """Effects plus the latency the submitter observed."""

    effects: TransactionEffects
    latency: float
    used_fast_path: bool


class LedgerExecutor:
    """Submission endpoint for clients (hosts and AS services)."""

    def __init__(
        self,
        ledger: Ledger,
        committee: Committee,
        clock: Clock | None = None,
    ) -> None:
        self.ledger = ledger
        self.committee = committee
        self.clock = clock if clock is not None else SimClock()
        registry = get_registry()
        self._m_tx_latency = registry.histogram(
            "ledger_tx_latency_seconds",
            "Modeled submit latency by path and execution status.",
            ("path", "status"),
        )
        self._m_calls = registry.counter(
            "ledger_contract_calls_total",
            "Commands executed, by contract entry point and status.",
            ("contract", "function", "status"),
        )
        self._m_gas_computation = registry.counter(
            "ledger_gas_computation_units_total",
            "Gas computation units charged across all transactions.",
        ).labels()
        self._m_gas_storage = registry.counter(
            "ledger_gas_storage_bytes_total",
            "Gas storage bytes charged across all transactions.",
        ).labels()

    def submit(self, transaction: Transaction) -> SubmittedTransaction:
        """Execute a transaction and report its observed latency.

        The latency model is applied regardless of success — an aborted
        transaction still travelled to the committee.
        """
        self.ledger.now = self.clock.now()
        effects = self.ledger.execute(transaction)
        if effects.touches_shared:
            latency = self.committee.consensus_latency()
            fast = False
        else:
            latency = self.committee.fast_path_latency()
            fast = True
        if isinstance(self.clock, SimClock):
            self.clock.advance(latency)
        path = "fast" if fast else "consensus"
        self._m_tx_latency.labels(path, effects.status).observe(latency)
        for command in transaction.commands:
            self._m_calls.labels(command.contract, command.function, effects.status).inc()
        gas = effects.gas
        if gas is not None:
            self._m_gas_computation.inc(gas.computation_units)
            self._m_gas_storage.inc(gas.storage_bytes)
        trace = current_trace()
        if trace is not None:
            trace.event(
                "ledger.submit",
                tx_digest=effects.tx_digest,
                status=effects.status,
                path=path,
                latency=latency,
                commands=[
                    f"{command.contract}.{command.function}"
                    for command in transaction.commands
                ],
            )
        return SubmittedTransaction(effects=effects, latency=latency, used_fast_path=fast)
