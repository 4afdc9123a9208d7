"""The transfer planner's market snapshot: common grid, slots, and offers.

A :class:`TransferBook` freezes everything a deadline transfer can buy:
for every direction the path crosses (each hop's ingress and egress
interface), the live listings overlapping ``[release, deadline)``, plus
one **common time grid** all of them accept.

The listings are the index's own records
(:class:`~repro.marketdata.query.IndexedListing`): the carve rule and the
ceil price a transfer plans with are the ones a posted purchase quotes with.

Grid construction is the coarsest-common-granule alignment: every listing
accepts windows on its lattice ``start + k*granularity``; folding those
lattices pairwise (:func:`~repro.marketdata.query.fold_lattices`: CRT over
the anchors, step = lcm of the granularities) yields either one shared
lattice — whose step is the coarsest granule every listing honors — or
nothing, in which case
:class:`~repro.marketdata.query.IncompatibleGranularity` names the
irreconcilable classes instead of failing opaquely downstream.

The grid divides the horizon into *slots*.  Both the
:class:`~repro.transfers.planner.TransferPlanner` and the offline oracle
price the same action space over those slots — per slot, pick one rate
and (implicitly) the cheapest listing per direction that can sell it —
through the shared :meth:`TransferBook.slot_offer` primitive, so their
results are directly comparable.  Candidate rates per slot are the
breakpoints where some listing's feasibility flips (its minimum, its full
bandwidth, full-minus-minimum) plus the residual rate that would finish
the request in that slot alone; between breakpoints the cost is linear in
the rate, so optima over this set track the continuous optimum.

Plateau skipping: the per-slot covering sets are piecewise constant —
they change only where a listing's validity edge crosses the grid — so
:meth:`TransferBook.all_slot_options` enumerates those *segments* and
prices one representative slot per (segment, clip) class instead of
re-searching the book for every slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.marketdata.query import IncompatibleGranularity, Lattice, fold_lattices
from repro.transfers.request import (
    BYTES_PER_KBPS_SECOND,
    MAX_REDEEM_SECONDS,
    InfeasibleTransfer,
)

#: Hard cap on grid slots per transfer — bounds planner and oracle work.
MAX_SLOTS = 4096


@dataclass(frozen=True)
class SlotOption:
    """One way to buy one slot: a rate, its total cost, its payload.

    ``cost_mist`` sums per-direction ceil prices over the full slot
    window (the executed plan merges adjacent pieces before buying, so
    the real spend can only round *down* from this).  ``bytes`` counts
    only the slot's overlap with ``[release, deadline)``.  ``picks`` maps
    each direction key to the chosen listing id.
    """

    rate_kbps: int
    cost_mist: int
    bytes: int
    picks: tuple

    @property
    def density(self) -> float:
        """Cost per payload byte — the greedy planner's sort key."""
        return self.cost_mist / self.bytes


class TransferBook:
    """Frozen view of everything one deadline transfer can buy.

    ``directions`` maps ``(hop_index, is_ingress)`` to that interface
    direction's :class:`~repro.marketdata.query.IndexedListing`\\ s sorted
    cheapest-first; ``slots`` is the common grid covering ``[release,
    deadline)``.
    """

    def __init__(self, crossings, release: int, deadline: int, directions):
        self.crossings = tuple(crossings)
        self.release = release
        self.deadline = deadline
        self.directions = {
            key: tuple(
                sorted(
                    listings,
                    key=lambda l: (l.price_micromist_per_unit, l.start, l.listing_id),
                )
            )
            for key, listings in directions.items()
        }
        self.by_id = {
            listing.listing_id: listing
            for listings in self.directions.values()
            for listing in listings
        }
        for key, listings in self.directions.items():
            if not listings:
                hop, is_ingress = key
                raise InfeasibleTransfer(
                    f"no live listing overlaps [{release},{deadline}) on "
                    f"crossing {hop} "
                    f"{'ingress' if is_ingress else 'egress'}"
                )
        self.lattice = self._common_lattice()
        self.slots = self._grid()

    # -- grid ----------------------------------------------------------------------

    def _common_lattice(self) -> Lattice:
        classes = sorted(
            {
                listing.lattice
                for listings in self.directions.values()
                for listing in listings
            },
            key=lambda lat: (lat.step, lat.anchor),
        )
        folded = classes[0]
        for lattice in classes[1:]:
            merged = fold_lattices(folded, lattice)
            if merged is None:
                named = ", ".join(
                    f"{lat.step}s@+{lat.anchor}" for lat in classes
                )
                raise IncompatibleGranularity(
                    f"listings on granule classes [{named}] admit no common "
                    "aligned grid (anchors incongruent); list assets on a "
                    "shared granule or split them to compatible boundaries"
                )
            folded = merged
        # The coarsest common granule must fit inside each direction's
        # supply: if every listing of some direction is shorter than one
        # grid step, no slot there is ever purchasable.
        for key, listings in self.directions.items():
            span = max(l.expiry - l.start for l in listings)
            if folded.step > span:
                hop, is_ingress = key
                raise IncompatibleGranularity(
                    f"coarsest common granule {folded.step}s exceeds every "
                    f"listing on crossing {hop} "
                    f"{'ingress' if is_ingress else 'egress'} "
                    f"(longest spans {span}s); no common alignment is usable"
                )
        return folded

    def _grid(self) -> tuple:
        step = self.lattice.step
        if step > MAX_REDEEM_SECONDS:
            raise IncompatibleGranularity(
                f"coarsest common granule {step}s exceeds the "
                f"{MAX_REDEEM_SECONDS}s redeem duration cap; no purchased "
                "window on this grid could ever be redeemed"
            )
        first, last = self.lattice.cover(self.release, self.deadline)
        count = (last - first) // step
        if count > MAX_SLOTS:
            raise InfeasibleTransfer(
                f"transfer window spans {count} grid slots of {step}s, above "
                f"the {MAX_SLOTS}-slot planner cap; shorten the window or "
                "coarsen the request"
            )
        return tuple(
            (first + i * step, first + (i + 1) * step) for i in range(count)
        )

    def effective_seconds(self, slot: tuple[int, int]) -> int:
        """Payload time: the slot's overlap with ``[release, deadline)``."""
        return max(0, min(slot[1], self.deadline) - max(slot[0], self.release))

    # -- offers --------------------------------------------------------------------

    def covering(self, slot: tuple[int, int]) -> dict:
        """Per direction, the listings covering the (purchase) slot — a slot
        is on every listing's lattice, so covering is containment."""
        start, expiry = slot
        return {
            key: tuple(l for l in listings if l.start <= start and expiry <= l.expiry)
            for key, listings in self.directions.items()
        }

    def slot_offer(
        self, slot_index: int, rate_kbps: int, covering: dict | None = None
    ) -> SlotOption | None:
        """Price one slot at one rate, or None when some direction can't.

        Per direction the cheapest covering listing able to sell the rate
        wins — for a fixed rate the cost decomposes per direction, so
        this is optimal within the one-listing-per-direction action
        space.
        """
        if rate_kbps <= 0:
            return None
        slot = self.slots[slot_index]
        if covering is None:
            covering = self.covering(slot)
        cost = 0
        picks = []
        for key, listings in covering.items():
            chosen = None
            for listing in listings:
                if listing.sellable(rate_kbps):
                    chosen = listing
                    break
            if chosen is None:
                return None
            cost += chosen.price_for(rate_kbps, *slot)
            picks.append((key, chosen.listing_id))
        payload = (
            rate_kbps * self.effective_seconds(slot) * BYTES_PER_KBPS_SECOND
        )
        return SlotOption(rate_kbps, cost, payload, tuple(picks))

    def candidate_rates(
        self,
        covering: dict,
        max_rate_kbps: int | None,
        extra_rates=(),
    ) -> list[int]:
        """Breakpoint rates where some listing's feasibility flips."""
        rates: set[int] = set(extra_rates)
        for listings in covering.values():
            for l in listings:
                rates.add(l.min_bandwidth_kbps)
                rates.add(l.bandwidth_kbps)
                rates.add(l.bandwidth_kbps - l.min_bandwidth_kbps)
        rates = {r for r in rates if r > 0}
        if max_rate_kbps is not None:
            rates = {r for r in rates if r <= max_rate_kbps}
            rates.add(max_rate_kbps)
        return sorted(rates)

    def slot_options(
        self,
        slot_index: int,
        covering: dict | None = None,
        max_rate_kbps: int | None = None,
        target_bytes: int | None = None,
    ) -> list[SlotOption]:
        """Pareto-optimal purchase options for one slot, bytes ascending.

        Besides the structural breakpoints, includes the *residual* rate
        that would deliver ``target_bytes`` in this slot alone — the
        squeeze candidate the pick that crosses the byte target needs
        between breakpoints.
        """
        if covering is None:
            covering = self.covering(self.slots[slot_index])
        extra = ()
        seconds = self.effective_seconds(self.slots[slot_index])
        if target_bytes is not None and seconds > 0:
            extra = (
                -(-target_bytes // (seconds * BYTES_PER_KBPS_SECOND)),
            )
        options = []
        for rate in self.candidate_rates(covering, max_rate_kbps, extra):
            offer = self.slot_offer(slot_index, rate, covering)
            if offer is not None and offer.bytes > 0:
                options.append(offer)
        # Prune dominated offers: keep cost-sorted strictly-rising bytes.
        options.sort(key=lambda o: (o.cost_mist, -o.bytes))
        frontier: list[SlotOption] = []
        best = -1
        for option in options:
            if option.bytes > best:
                frontier.append(option)
                best = option.bytes
        frontier.sort(key=lambda o: o.bytes)
        return frontier

    def all_slot_options(
        self,
        max_rate_kbps: int | None = None,
        target_bytes: int | None = None,
    ) -> list[list[SlotOption]]:
        """Per-slot option lists for the whole grid.

        The covering sets are computed once per *segment* — a run of slots
        no listing edge crosses — and whole option lists are shared between
        identically-clipped slots of a segment; slot by slot through
        :meth:`slot_options` gives the same lists.
        """
        per_slot: list[list[SlotOption]] = [[] for _ in self.slots]
        cache: dict = {}
        for segment_id, indices in enumerate(self._segments()):
            covering = self.covering(self.slots[indices[0]])
            for i in indices:
                clip = self.effective_seconds(self.slots[i])
                key = (segment_id, clip)
                if key not in cache:
                    cache[key] = self.slot_options(
                        i, covering, max_rate_kbps, target_bytes
                    )
                per_slot[i] = cache[key]
        return per_slot

    def _segments(self) -> list[list[int]]:
        """Maximal runs of slots with identical covering sets.

        A slot's covering set depends only on which listings satisfy
        ``listing.start <= slot_start`` and ``slot_expiry <=
        listing.expiry`` — both flip at most once along the grid, at the
        slot index a listing edge crosses.  Collecting those indices
        yields every segment boundary without comparing sets.
        """
        if not self.slots:
            return []
        first, step = self.slots[0][0], self.lattice.step
        boundaries = {0}
        count = len(self.slots)
        for listings in self.directions.values():
            for l in listings:
                enters = -(-(l.start - first) // step)
                if 0 < enters < count:
                    boundaries.add(enters)
                leaves = (l.expiry - first) // step  # first slot past expiry
                if 0 < leaves < count:
                    boundaries.add(leaves)
        edges = sorted(boundaries) + [count]
        return [
            list(range(edges[i], edges[i + 1]))
            for i in range(len(edges) - 1)
            if edges[i] < edges[i + 1]
        ]
