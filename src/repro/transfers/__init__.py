"""Deadline-driven bulk transfers: malleable reservation planning.

The grid workload "move N bytes across this path before deadline T,
under budget B" — requests (:mod:`~repro.transfers.request`), the frozen
market snapshot + common grid (:mod:`~repro.transfers.book`), the greedy
planner with exact fallback (:mod:`~repro.transfers.planner`), and the
offline-optimal differential baseline (:mod:`~repro.transfers.oracle`).
See ``docs/transfers.md``.
"""

from repro.marketdata.query import IncompatibleGranularity
from repro.transfers.book import MAX_SLOTS, SlotOption, TransferBook
from repro.transfers.oracle import (
    MAX_FRONTIER,
    OracleOverflow,
    OracleResult,
    Solution,
    offline_optimum,
    solve_schedule,
)
from repro.transfers.planner import TransferPlanner
from repro.transfers.request import (
    BYTES_PER_KBPS_SECOND,
    MAX_REDEEM_SECONDS,
    DeadlineTransfer,
    HopLeg,
    InfeasibleTransfer,
    LegPiece,
    TransferAborted,
    TransferLeg,
    TransferOutcome,
    TransferPlan,
)

__all__ = [
    "BYTES_PER_KBPS_SECOND",
    "MAX_FRONTIER",
    "MAX_REDEEM_SECONDS",
    "MAX_SLOTS",
    "DeadlineTransfer",
    "HopLeg",
    "IncompatibleGranularity",
    "InfeasibleTransfer",
    "LegPiece",
    "OracleOverflow",
    "OracleResult",
    "SlotOption",
    "Solution",
    "TransferAborted",
    "TransferBook",
    "TransferLeg",
    "TransferOutcome",
    "TransferPlan",
    "TransferPlanner",
    "offline_optimum",
    "solve_schedule",
]
