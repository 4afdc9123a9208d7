"""Offline-optimal baseline for deadline transfers.

Given the full listing book up front (no contention, no arrival order),
the deadline-transfer scheduling problem over the common grid is a
multiple-choice knapsack: per slot pick one purchase option (or nothing),
maximizing payload bytes — and, when the target is reachable, minimizing
spend among byte-sufficient schedules.

:func:`solve_schedule` solves it *exactly* by pareto-frontier dynamic
programming over (cost, bytes) states: after each slot only states that
are undominated — strictly more bytes for the money — survive.  Payload
is capped at the target while folding, which both keeps the frontier
small and makes "min cost at target" a by-product of the same pass.

The action space is the honest part of the contract: the oracle sees
exactly the :meth:`~repro.transfers.book.TransferBook.slot_options` the
planner sees (one listing per direction per slot, grid-aligned windows,
breakpoint + residual rates).  Within that space it is optimal, so the
differential suite's guarantees — the planner never misses a deadline the
oracle can meet, and achieves ≥90% of oracle bytes — are statements about
search quality, not about mismatched problem definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transfers.book import TransferBook
from repro.transfers.request import DeadlineTransfer

#: Pareto states retained per slot before the solver gives up.
MAX_FRONTIER = 200_000


class OracleOverflow(RuntimeError):
    """The exact solver's pareto frontier outgrew :data:`MAX_FRONTIER`.

    The oracle is a small-instance baseline; differential tests must
    size their books so this never fires.
    """


@dataclass(frozen=True)
class Solution:
    """One exact schedule: per-slot chosen options (None = idle slot)."""

    choices: tuple
    bytes: int
    cost_mist: int


@dataclass(frozen=True)
class OracleResult:
    """The offline optimum for one transfer over one frozen book.

    When ``feasible``, ``solution`` moves ≥ the requested bytes at the
    minimum spend any schedule in the action space can; otherwise it is
    the max-bytes schedule (possibly empty).
    """

    feasible: bool
    solution: Solution

    @property
    def bytes(self) -> int:
        return self.solution.bytes

    @property
    def cost_mist(self) -> int:
        return self.solution.cost_mist


def solve_schedule(option_sets, target_bytes: int) -> tuple[Solution | None, Solution]:
    """Exact DP over per-slot option lists.

    Returns ``(at_target, best_effort)``: the min-cost schedule reaching
    ``target_bytes`` (None when no schedule can), and the max-bytes
    schedule (ties broken toward cheaper; always present — the empty
    schedule qualifies).
    """
    # State: (cost, capped_bytes, chain) where chain is a linked list of
    # (slot_index, option) picks.  Bytes are capped at the target so all
    # byte-sufficient schedules collapse into one frontier band.
    frontier = [(0, 0, None)]
    for slot_index, options in enumerate(option_sets):
        if not options:
            continue
        grown = list(frontier)
        for cost, payload, chain in frontier:
            for option in options:
                grown.append(
                    (
                        cost + option.cost_mist,
                        min(target_bytes, payload + option.bytes),
                        ((slot_index, option), chain),
                    )
                )
        # Pareto prune: sort by (cost, -bytes); keep strictly rising bytes.
        grown.sort(key=lambda state: (state[0], -state[1]))
        pruned = []
        best = -1
        for state in grown:
            if state[1] > best:
                pruned.append(state)
                best = state[1]
        if len(pruned) > MAX_FRONTIER:
            raise OracleOverflow(
                f"pareto frontier reached {len(pruned)} states at slot "
                f"{slot_index}; instance too large for the exact oracle"
            )
        frontier = pruned

    def unchain(chain) -> tuple:
        picks = {}
        while chain is not None:
            (slot_index, option), chain = chain
            picks[slot_index] = option
        return tuple(
            picks.get(i) for i in range(len(option_sets))
        )

    best_effort_state = max(frontier, key=lambda s: (s[1], -s[0]))
    best_effort = Solution(
        unchain(best_effort_state[2]),
        best_effort_state[1],
        best_effort_state[0],
    )
    at_target = None
    for cost, payload, chain in frontier:  # cost-ascending already
        if payload >= target_bytes:
            at_target = Solution(unchain(chain), payload, cost)
            break
    return at_target, best_effort


def offline_optimum(
    book: TransferBook, transfer: DeadlineTransfer
) -> OracleResult:
    """The exact offline optimum for ``transfer`` over ``book``."""
    option_sets = book.all_slot_options(
        max_rate_kbps=transfer.max_rate_kbps,
        target_bytes=transfer.bytes_total,
    )
    at_target, best_effort = solve_schedule(option_sets, transfer.bytes_total)
    if at_target is not None:
        return OracleResult(True, at_target)
    return OracleResult(False, best_effort)
