"""Contending deadline-transfer mix with per-arrival differential oracles.

:func:`deadline_experiment` stands up one market over a linear AS chain
and pushes a randomized mix of deadline transfers through the *full*
stack — book snapshot, malleable planning, atomic multi-listing
buy+fuse+redeem, per-AS delivery — under genuine contention: every
executed transfer depletes the shared listings, so later arrivals plan
over the carved-up remainder book (exercising multi-listing stitching on
the seams earlier buys left behind).

At each arrival the experiment freezes the book the planner will see and
computes the exact offline optimum over it
(:func:`~repro.transfers.oracle.offline_optimum`).  That per-arrival
oracle is the honest baseline for an online planner: it sees the same
depleted supply, the same action space, and no future arrivals.  The
experiment then *asserts* the differential invariants end-to-end:

* the planner hits a deadline **iff** the oracle can (never misses a
  deadline the oracle can meet — and cannot beat an exact optimum);
* bytes moved ≥ 90% of oracle bytes-by-deadline, per transfer and in
  aggregate;
* the plan's predicted spend equals the MIST actually charged on-chain
  (summed ``Sold`` prices of the atomic transaction);
* one decrypted reservation arrives per hop per leg.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.clock import SimClock
from repro.netsim.scenarios import BASE_PRICE_MICROMIST, linear_path

T0 = 1_700_000_000
NUM_ASES = 3
TRANSFER_COUNT = 3
HORIZON = 1200  # seconds of sale the market lists
SEED = 5


@dataclass
class TransferRecord:
    """One transfer's fate in :func:`deadline_experiment`."""

    name: str
    bytes_requested: int
    release: int
    deadline: int
    max_rate_kbps: int | None
    oracle_feasible: bool
    oracle_bytes: int
    oracle_cost_mist: int
    bytes_moved: int = 0
    spend_mist: int = 0
    chain_paid_mist: int = 0
    reservations: int = 0
    legs: int = 0
    buys: int = 0

    @property
    def deadline_hit(self) -> bool:
        return self.bytes_moved >= self.bytes_requested


@dataclass
class DeadlineExperimentResult:
    """Aggregate outcome of :func:`deadline_experiment`."""

    records: list[TransferRecord] = field(default_factory=list)


def deadline_experiment() -> DeadlineExperimentResult:
    """Run a contending transfer mix end-to-end and return the tally.

    The mix is sized against the path's total capacity
    (``market_bandwidth_kbps`` over :data:`HORIZON`): early arrivals fit
    easily, the tail oversubscribes, so the run exercises both clean
    hits and best-effort partial deliveries on a depleted book.  Every
    invariant described in the module docstring is asserted inline — a
    violation raises, so a passing run *is* the differential test.
    """
    from repro.controlplane import deploy_market, execute_transfer
    from repro.scion.paths import as_crossings
    from repro.transfers import (
        BYTES_PER_KBPS_SECOND,
        DeadlineTransfer,
        InfeasibleTransfer,
        TransferPlanner,
        offline_optimum,
    )

    market_bandwidth_kbps = 2_000

    rng = random.Random(SEED)
    topology, path = linear_path(NUM_ASES)
    crossings = as_crossings(path)
    deployment = deploy_market(
        topology,
        clock=SimClock(float(T0)),
        seed=SEED,
        asset_start=T0,
        asset_duration=HORIZON,
        asset_bandwidth_kbps=market_bandwidth_kbps,
        price_micromist_per_unit=BASE_PRICE_MICROMIST,
    )
    result = DeadlineExperimentResult()
    path_capacity = market_bandwidth_kbps * HORIZON * BYTES_PER_KBPS_SECOND
    for index in range(TRANSFER_COUNT):
        # Mix: sizes from 10% to 55% of path capacity (the tail
        # oversubscribes), windows anywhere in the horizon, an occasional
        # rate cap forcing multi-slot legs.
        release = T0 + rng.randrange(0, HORIZON // 3, 60)
        deadline = T0 + rng.randrange(2 * HORIZON // 3, HORIZON + 1, 60)
        window = deadline - release
        bytes_total = int(path_capacity * rng.uniform(0.10, 0.55))
        max_rate = None
        if index % 3 == 2:
            # Cap below the single-slot residual rate: the plan must
            # spread across several slots.
            max_rate = max(
                100,
                min(
                    market_bandwidth_kbps,
                    2 * bytes_total // (window * BYTES_PER_KBPS_SECOND),
                ),
            )
        host = deployment.new_host()
        host.fund(10**12)
        planner = TransferPlanner(host.indexer(deployment.marketplace))
        request = DeadlineTransfer(
            crossings=tuple(crossings),
            bytes_total=bytes_total,
            release=release,
            deadline=deadline,
            max_rate_kbps=max_rate,
        )
        try:
            book = planner.book(request)
            oracle = offline_optimum(book, request)
            oracle_feasible = oracle.feasible
            oracle_bytes = oracle.bytes
            oracle_cost = oracle.cost_mist
        except InfeasibleTransfer:
            # The book sold out entirely: nothing overlaps the window,
            # so the offline optimum is trivially zero.
            oracle_feasible, oracle_bytes, oracle_cost = False, 0, 0
        outcome = execute_transfer(
            deployment,
            host,
            list(crossings),
            bytes_total,
            deadline,
            release=release,
            max_rate_kbps=max_rate,
            best_effort=True,
        )
        chain_paid = (
            sum(
                ret.get("price_mist", 0)
                for ret in outcome.submitted.effects.returns
            )
            if outcome.submitted is not None
            else 0
        )
        record = TransferRecord(
            name=f"t{index}",
            bytes_requested=bytes_total,
            release=release,
            deadline=deadline,
            max_rate_kbps=max_rate,
            oracle_feasible=oracle_feasible,
            oracle_bytes=oracle_bytes,
            oracle_cost_mist=oracle_cost,
            bytes_moved=outcome.bytes_moved,
            spend_mist=outcome.plan.spend_mist,
            chain_paid_mist=chain_paid,
            reservations=len(outcome.reservations),
            legs=len(outcome.plan.legs),
            buys=outcome.plan.buy_count,
        )
        result.records.append(record)

        # Differential invariants, end-to-end through buy+redeem:
        assert record.deadline_hit == oracle_feasible, (
            f"{record.name}: planner "
            f"{'hit' if record.deadline_hit else 'missed'} but the exact "
            f"oracle says feasible={oracle_feasible}"
        )
        assert record.bytes_moved >= int(0.9 * oracle_bytes), (
            f"{record.name}: moved {record.bytes_moved} bytes, under 90% "
            f"of the oracle's {oracle_bytes}"
        )
        assert record.chain_paid_mist == record.spend_mist, (
            f"{record.name}: plan predicted {record.spend_mist} MIST but "
            f"the chain charged {record.chain_paid_mist}"
        )
        assert record.reservations == outcome.plan.redeem_count, (
            f"{record.name}: {outcome.plan.redeem_count} redeems but "
            f"{record.reservations} reservations delivered"
        )
    return result
