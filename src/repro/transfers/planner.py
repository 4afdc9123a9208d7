"""The malleable deadline-transfer planner.

Turns a :class:`~repro.transfers.request.DeadlineTransfer` into a
:class:`~repro.transfers.request.TransferPlan` over a frozen
:class:`~repro.transfers.book.TransferBook`:

1. **Offer enumeration** — the book's segment-sharing
   ``all_slot_options`` yields, per grid slot, the pareto frontier of
   (rate, cost, payload) purchase options; the covering-listing search
   runs once per constant segment, not once per slot.
2. **Greedy schedule** — slots are claimed in cost-per-byte density
   order; the pick that crosses the byte target is *trimmed* by binary
   search over its slot's bytes-sorted frontier (the valley-edge bisect:
   smallest sufficient option = cheapest sufficient option, because the
   frontier is pareto).  A final descending-density pass re-trims or
   drops earlier picks the overshoot made unnecessary.
3. **Exact fallback** — when greedy can't reach the target, the
   planner re-solves the same slot/option instance with the
   oracle's exact pareto DP (:func:`~repro.transfers.oracle.solve_schedule`).
   Greedy and oracle share one action space, so by construction the
   planner never declares infeasible a request the offline oracle can
   meet (up to the oracle's own frontier cap).
4. **Leg assembly** — chosen slots coalesce into maximal same-rate runs
   (split below the on-chain redeem's 2^16-second duration cap); within
   a run, consecutive same-listing slots merge into one
   :class:`~repro.transfers.request.LegPiece` per direction, priced with
   a single ceil over the merged window (never more than the per-slot
   sum), fused on-chain before one redeem per hop per leg.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.marketdata.query import direction_keys
from repro.transfers.book import TransferBook
from repro.transfers.oracle import OracleOverflow, solve_schedule
from repro.transfers.request import (
    BYTES_PER_KBPS_SECOND,
    MAX_REDEEM_SECONDS,
    DeadlineTransfer,
    HopLeg,
    InfeasibleTransfer,
    LegPiece,
    TransferLeg,
    TransferPlan,
)


class TransferPlanner:
    """Plans deadline transfers against a live market index."""

    def __init__(self, indexer) -> None:
        self.indexer = indexer

    # -- public API ----------------------------------------------------------------

    def book(self, transfer: DeadlineTransfer) -> TransferBook:
        """Snapshot the synced index into the book this transfer can buy from."""
        self.indexer.sync()
        keys = direction_keys(transfer.crossings)  # hop 0 in, hop 0 out, hop 1 in, ...
        found = self.indexer.overlapping(keys, transfer.release, transfer.deadline)
        directions = {
            (position // 2, position % 2 == 0): found[key]
            for position, key in enumerate(keys)
        }
        return TransferBook(
            transfer.crossings, transfer.release, transfer.deadline, directions
        )

    def plan(
        self, transfer: DeadlineTransfer, *, best_effort: bool = False
    ) -> TransferPlan:
        try:
            book = self.book(transfer)
        except InfeasibleTransfer:
            # No supply at all (e.g. the book sold out).  Structural
            # errors (IncompatibleGranularity) still propagate.
            if not best_effort:
                raise
            return TransferPlan(transfer, ())
        return self.plan_on_book(book, transfer, best_effort=best_effort)

    def plan_on_book(
        self,
        book: TransferBook,
        transfer: DeadlineTransfer,
        *,
        best_effort: bool = False,
    ) -> TransferPlan:
        """Plan over a frozen book: density-greedy, with the exact DP as
        the rescue when greedy falls short of the target.

        ``best_effort=False`` raises :class:`InfeasibleTransfer` (with
        the achievable bytes/spend attached) when no schedule reaches the
        target; ``best_effort=True`` returns the max-bytes plan instead.
        """
        option_sets = book.all_slot_options(
            max_rate_kbps=transfer.max_rate_kbps,
            target_bytes=transfer.bytes_total,
        )
        target = transfer.bytes_total
        chosen, got, spend = self._greedy(option_sets, target)
        if got < target:
            try:
                at_target, fallback_best = solve_schedule(option_sets, target)
            except OracleOverflow:
                at_target, fallback_best = None, None
            rescue = at_target
            if rescue is None and fallback_best is not None and fallback_best.bytes > got:
                rescue = fallback_best  # short of the target, but further than greedy
            if rescue is not None:
                chosen = {
                    i: option
                    for i, option in enumerate(rescue.choices)
                    if option is not None
                }
                got, spend = rescue.bytes, rescue.cost_mist
        if got < target and not best_effort:
            raise InfeasibleTransfer(
                f"cannot move {target} bytes by {transfer.deadline}: best "
                f"achievable schedule carries {got} bytes for {spend} MIST",
                achievable_bytes=got,
                achievable_spend_mist=spend,
            )
        legs = self._legs(book, option_sets, chosen, min(got, target))
        return TransferPlan(transfer, legs)

    # -- greedy search -------------------------------------------------------------

    def _greedy(self, option_sets, target: int):
        """Density-greedy schedule with bisect trimming.

        Returns ``(chosen, bytes, spend)`` where ``chosen`` maps slot
        index to the picked :class:`SlotOption`.
        """
        ranked = sorted(
            (i for i, options in enumerate(option_sets) if options),
            key=lambda i: min(o.density for o in option_sets[i]),
        )
        chosen: dict = {}
        got = 0
        spend = 0
        for i in ranked:
            if got >= target:
                break
            options = option_sets[i]
            pick = min(options, key=lambda o: o.density)
            residual = target - got
            if pick.bytes >= residual:
                # Valley-edge bisect: the frontier is bytes- and
                # cost-ascending, so the smallest sufficient option is
                # also the cheapest sufficient one.
                pick = options[bisect_left([o.bytes for o in options], residual)]
            chosen[i] = pick
            got += pick.bytes
            spend += pick.cost_mist
        if got >= target:
            got, spend = self._retrim(option_sets, chosen, target, got, spend)
        return chosen, got, spend

    def _retrim(self, option_sets, chosen, target, got, spend):
        """Spend-reduction pass: shrink or drop picks the overshoot
        made unnecessary, worst density first."""
        for i in sorted(
            chosen, key=lambda i: chosen[i].density, reverse=True
        ):
            slack = got - target
            if slack <= 0:
                break
            current = chosen[i]
            if current.bytes <= slack:
                del chosen[i]
                got -= current.bytes
                spend -= current.cost_mist
                continue
            options = option_sets[i]
            sizes = [o.bytes for o in options]
            smaller = options[bisect_left(sizes, current.bytes - slack)]
            if smaller.cost_mist < current.cost_mist:
                chosen[i] = smaller
                got += smaller.bytes - current.bytes
                spend += smaller.cost_mist - current.cost_mist
        return got, spend

    # -- leg assembly --------------------------------------------------------------

    def _legs(self, book, option_sets, chosen, bytes_to_schedule) -> tuple:
        runs = self._runs(book, chosen)
        legs = []
        remaining = bytes_to_schedule
        for indices, option in runs:
            start = book.slots[indices[0]][0]
            expiry = book.slots[indices[-1]][1]
            eff_start = max(start, book.release)
            eff_expiry = min(expiry, book.deadline)
            capacity = (
                option.rate_kbps
                * (eff_expiry - eff_start)
                * BYTES_PER_KBPS_SECOND
            )
            scheduled = min(capacity, remaining)
            remaining -= scheduled
            hops = self._hop_legs(book, indices, chosen, option.rate_kbps)
            legs.append(
                TransferLeg(
                    start=start,
                    expiry=expiry,
                    rate_kbps=option.rate_kbps,
                    effective_start=eff_start,
                    effective_expiry=eff_expiry,
                    bytes_scheduled=scheduled,
                    hops=hops,
                )
            )
        return tuple(legs)

    def _runs(self, book, chosen):
        """Maximal contiguous same-rate slot runs, split below the
        redeem duration cap.  Yields ``(slot_indices, representative)``.
        """
        runs = []
        current: list[int] = []
        for i in range(len(book.slots)):
            option = chosen.get(i)
            if option is None:
                if current:
                    runs.append((current, chosen[current[0]]))
                    current = []
                continue
            if current:
                prev = chosen[current[0]]
                duration = book.slots[i][1] - book.slots[current[0]][0]
                if (
                    option.rate_kbps != prev.rate_kbps
                    or duration > MAX_REDEEM_SECONDS
                ):
                    runs.append((current, prev))
                    current = []
            current.append(i)
        if current:
            runs.append((current, chosen[current[0]]))
        return runs

    def _hop_legs(self, book, indices, chosen, rate_kbps) -> tuple:
        hops = []
        for hop, crossing in enumerate(book.crossings):
            pieces = {}
            for is_ingress in (True, False):
                key = (hop, is_ingress)
                merged: list[list] = []  # [listing_id, start, expiry]
                for i in indices:
                    picks = dict(chosen[i].picks)
                    listing_id = picks[key]
                    slot = book.slots[i]
                    if merged and merged[-1][0] == listing_id:
                        merged[-1][2] = slot[1]
                    else:
                        merged.append([listing_id, slot[0], slot[1]])
                pieces[is_ingress] = tuple(
                    LegPiece(
                        listing_id=listing_id,
                        start=start,
                        expiry=expiry,
                        price_mist=book.by_id[listing_id].price_for(
                            rate_kbps, start, expiry
                        ),
                    )
                    for listing_id, start, expiry in merged
                )
            hops.append(
                HopLeg(
                    isd_as=crossing.isd_as,
                    ingress=crossing.ingress,
                    egress=crossing.egress,
                    ingress_pieces=pieces[True],
                    egress_pieces=pieces[False],
                )
            )
        return tuple(hops)
