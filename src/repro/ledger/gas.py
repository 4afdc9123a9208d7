"""Gas accounting: computation buckets, storage bytes, storage rebates.

Transaction cost has three components (§6.2):

* **computation cost** — raw computation units are rounded *up* into
  bucket sizes (1000 · 2^k units) and charged at the reference gas price
  of 7.5e-7 SUI per unit.  The paper's Table 1 shows exactly this
  bucketing: 1-4 hops land in the 1000-unit bucket (0.00075 SUI), 8 hops
  in 2000 (0.0015), 16 hops in 4000 (0.0030);
* **storage cost** — every created object *and every new version of a
  mutated object* is charged 7.6e-6 SUI per serialized byte;
* **storage rebate** — deleting (or superseding) an object refunds 99 % of
  the storage originally paid for it; the 1 % non-refundable part stays
  with the network.

Totals can be negative: a transaction that mostly deletes state earns more
rebate than it spends (Table 2: ``fuse_time`` nets -0.0013 SUI).
"""

from __future__ import annotations

from dataclasses import dataclass

COMPUTATION_PRICE_SUI = 7.5e-7  # SUI per computation unit (reference gas price)
STORAGE_PRICE_SUI = 7.6e-6  # SUI per byte
REBATE_RATE = 0.99
SUI_PRICE_USD = 1.221  # as of 2024-04-18 14:09 UTC (Table 1 footnote)

MIN_BUCKET = 1_000
MAX_BUCKET = 5_000_000


def computation_bucket(raw_units: int) -> int:
    """Round raw computation units up to the next 1000·2^k bucket."""
    if raw_units < 0:
        raise ValueError("computation units cannot be negative")
    bucket = MIN_BUCKET
    while bucket < raw_units:
        bucket *= 2
        if bucket >= MAX_BUCKET:
            return MAX_BUCKET
    return bucket


@dataclass(frozen=True)
class GasSummary:
    """The three cost components of one transaction, in SUI."""

    computation_units: int  # bucketed
    storage_bytes: int  # bytes charged (created + new versions)
    rebate_bytes: int  # bytes refunded (deleted + superseded versions)

    @property
    def computation_cost(self) -> float:
        return self.computation_units * COMPUTATION_PRICE_SUI

    @property
    def storage_cost(self) -> float:
        return self.storage_bytes * STORAGE_PRICE_SUI

    @property
    def storage_rebate(self) -> float:
        return self.rebate_bytes * STORAGE_PRICE_SUI * REBATE_RATE

    @property
    def total_sui(self) -> float:
        """computation + storage - rebate (may be negative)."""
        return self.computation_cost + self.storage_cost - self.storage_rebate

    @property
    def total_usd(self) -> float:
        return self.total_sui * SUI_PRICE_USD


class GasMeter:
    """Accumulates raw computation units and storage deltas during execution.

    Contracts charge through the :class:`CallContext`; the meter converts
    the raw tally into a :class:`GasSummary` when the transaction commits.
    """

    # Raw unit charges per executor action; calibrated so that individual
    # contract calls land in the minimum bucket while multi-hop atomic
    # buy-and-redeems climb through the buckets like the paper's Table 1:
    # <=4 hops in the 1000 bucket, 8 hops in 2000, 16 hops in 4000.
    CALL_UNITS = 12
    CREATE_UNITS = 8
    MUTATE_UNITS = 5
    DELETE_UNITS = 5
    TRANSFER_UNITS = 3
    PER_KILOBYTE_UNITS = 1

    def __init__(self) -> None:
        self.raw_units = 0
        self.storage_bytes = 0
        self.rebate_bytes = 0

    def charge_call(self) -> None:
        self.raw_units += self.CALL_UNITS

    def charge_create(self, size: int) -> None:
        self.raw_units += self.CREATE_UNITS + self.PER_KILOBYTE_UNITS * (size // 1024)
        self.storage_bytes += size

    def charge_mutate(self, old_size: int, new_size: int) -> None:
        """A mutation supersedes the old version: charge new, rebate old."""
        self.raw_units += self.MUTATE_UNITS
        self.storage_bytes += new_size
        self.rebate_bytes += old_size

    def charge_delete(self, size: int) -> None:
        self.raw_units += self.DELETE_UNITS
        self.rebate_bytes += size

    def charge_transfer(self) -> None:
        self.raw_units += self.TRANSFER_UNITS

    def summary(self) -> GasSummary:
        return GasSummary(
            computation_units=computation_bucket(self.raw_units),
            storage_bytes=self.storage_bytes,
            rebate_bytes=self.rebate_bytes,
        )
