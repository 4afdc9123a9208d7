"""Differential harness: planner vs the exact offline oracle.

The load-bearing guarantees:

* **feasibility match** — the planner succeeds exactly when the oracle
  says a schedule meeting the request exists (the planner falls back to
  the same exact search before declaring infeasibility);
* **best-effort parity** — when both fall short, the planner's
  best-effort plan carries exactly the oracle's maximum byte count;
* **greedy quality** — with the exact fallback disabled, the pure
  density-greedy heuristic still moves >= 90% of the oracle's bytes in
  aggregate over a fixed randomized workload.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfers import InfeasibleTransfer, TransferPlanner
from repro.transfers.oracle import offline_optimum

from tests.transfers.conftest import check_plan_wellformed, greedy_plan, random_instance

planner = TransferPlanner(indexer=None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_planner_feasibility_matches_oracle(seed):
    rng = random.Random(seed)
    book, transfer = random_instance(rng, hops=rng.choice([1, 1, 2]))
    oracle = offline_optimum(book, transfer)
    try:
        plan = planner.plan_on_book(book, transfer)
    except InfeasibleTransfer as exc:
        assert not oracle.feasible, (
            "planner declared infeasible a transfer the oracle can "
            f"schedule for {oracle.cost_mist} MIST"
        )
        assert exc.achievable_bytes == oracle.bytes
        return
    assert oracle.feasible, "planner produced a plan the oracle rules out"
    check_plan_wellformed(book, plan)
    assert plan.bytes_scheduled == transfer.bytes_total == oracle.bytes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_best_effort_bytes_match_oracle_best_effort(seed):
    rng = random.Random(seed)
    book, transfer = random_instance(rng)
    oracle = offline_optimum(book, transfer)
    plan = planner.plan_on_book(book, transfer, best_effort=True)
    check_plan_wellformed(book, plan)
    target = min(transfer.bytes_total, oracle.bytes)
    assert plan.bytes_scheduled == target


def test_pure_greedy_moves_at_least_90pct_of_oracle_bytes():
    """The ISSUE's quality bar on the heuristic alone: aggregate bytes
    over a fixed randomized workload, no exact fallback to hide behind.

    Aggregate (not per-instance) is the right bar — a single adversarial
    valley can cost the greedy one slot, but across the workload it must
    track the oracle closely.
    """
    greedy_bytes = 0
    oracle_bytes = 0
    instances = 0
    for seed in range(60):
        rng = random.Random(seed)
        book, transfer = random_instance(rng)
        oracle = offline_optimum(book, transfer)
        plan = greedy_plan(book, transfer)
        check_plan_wellformed(book, plan)
        cap = min(transfer.bytes_total, oracle.bytes)
        assert plan.bytes_scheduled <= cap
        greedy_bytes += plan.bytes_scheduled
        oracle_bytes += cap
        instances += 1
    assert instances == 60
    assert oracle_bytes > 0
    ratio = greedy_bytes / oracle_bytes
    assert ratio >= 0.90, (
        f"pure greedy moved only {ratio:.1%} of the oracle's bytes "
        f"({greedy_bytes:,} vs {oracle_bytes:,})"
    )


def test_feasible_spend_stays_within_twice_the_oracle():
    """Sanity on price quality: the planner's spend on feasible instances
    stays within 2x the oracle's minimum cost (the greedy is byte-optimal
    by construction, not cost-optimal — this bounds how far off it drifts
    on the same workload)."""
    spend = 0
    optimum = 0
    for seed in range(60):
        rng = random.Random(seed)
        book, transfer = random_instance(rng)
        oracle = offline_optimum(book, transfer)
        if not oracle.feasible:
            continue
        plan = planner.plan_on_book(book, transfer)
        spend += plan.spend_mist
        optimum += oracle.cost_mist
    assert optimum > 0
    assert spend <= 2 * optimum, (
        f"planner spend {spend} vs oracle optimum {optimum}"
    )
