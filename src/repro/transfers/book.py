"""The transfer planner's market snapshot: common grid, slots, and offers.

A :class:`TransferBook` freezes everything a deadline transfer can buy:
for every direction the path crosses (each hop's ingress and egress
interface), the live listings overlapping ``[release, deadline)``, plus
one **common time grid** all of them accept.

Grid construction is the coarsest-common-granule alignment: every listing
accepts windows on its lattice ``start + k*granularity``; folding those
lattices pairwise (CRT over the anchors, step = lcm of the granularities)
yields either one shared lattice — whose step is the coarsest granule
every listing honors — or nothing, in which case
:class:`~repro.marketdata.query.IncompatibleGranularity` names the
irreconcilable classes instead of failing opaquely downstream.

>>> fold_lattices(Lattice(0, 60), Lattice(0, 120))
Lattice(anchor=0, step=120)
>>> fold_lattices(Lattice(0, 60), Lattice(15, 90)) is None  # incongruent
True
>>> fold_lattices(Lattice(30, 60), Lattice(0, 90))
Lattice(anchor=90, step=180)

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

import math
from dataclasses import dataclass

from repro.marketdata.query import MICROMIST, IncompatibleGranularity
from repro.transfers.request import (
    BYTES_PER_KBPS_SECOND,
    MAX_REDEEM_SECONDS,
    InfeasibleTransfer,
)

#: Hard cap on grid slots per transfer — bounds planner and oracle work.
MAX_SLOTS = 4096


@dataclass(frozen=True)
class Lattice:
    """The set of instants ``anchor + k*step`` (k any integer)."""

    anchor: int
    step: int


def fold_lattices(first: Lattice, second: Lattice) -> Lattice | None:
    """Intersection of two lattices, or None when they never meet.

    The intersection is empty iff the anchors are incongruent modulo
    ``gcd(step1, step2)``; otherwise it is a lattice with step
    ``lcm(step1, step2)`` whose anchor CRT recovers.  The returned anchor
    is normalized into ``[0, step)``.
    """
    g = math.gcd(first.step, second.step)
    if (second.anchor - first.anchor) % g:
        return None
    step = first.step // g * second.step  # lcm
    m = second.step // g
    if m == 1:
        anchor = first.anchor
    else:
        t = (
            ((second.anchor - first.anchor) // g)
            * pow((first.step // g) % m, -1, m)
        ) % m
        anchor = first.anchor + first.step * t
    return Lattice(anchor % step, step)


@dataclass(frozen=True)
class BookListing:
    """One live listing, snapshotted for transfer planning."""

    listing_id: str
    unit_price: int  # micromist per kbps-second
    bandwidth_kbps: int
    min_bandwidth_kbps: int
    start: int
    expiry: int
    granularity: int

    @classmethod
    def from_indexed(cls, record) -> "BookListing":
        """From a :class:`~repro.marketdata.query.IndexedListing`."""
        return cls(
            listing_id=record.listing_id,
            unit_price=record.price_micromist_per_unit,
            bandwidth_kbps=record.bandwidth_kbps,
            min_bandwidth_kbps=record.min_bandwidth_kbps,
            start=record.start,
            expiry=record.expiry,
            granularity=record.granularity,
        )

    def covers(self, start: int, expiry: int) -> bool:
        return self.start <= start and expiry <= self.expiry

    def sellable(self, rate_kbps: int) -> bool:
        """The market contract's carve rule: the bought piece and any
        bandwidth remainder must both respect the listing's minimum."""
        remainder = self.bandwidth_kbps - rate_kbps
        if rate_kbps < self.min_bandwidth_kbps or remainder < 0:
            return False
        return remainder == 0 or remainder >= self.min_bandwidth_kbps

    def price_for(self, rate_kbps: int, start: int, expiry: int) -> int:
        """MIST price of one buy (ceil, exactly like the contract)."""
        units = rate_kbps * (expiry - start)
        return -(-units * self.unit_price // MICROMIST)

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.start % self.granularity, self.granularity)


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
    direction's listings sorted cheapest-first; ``slots`` is the common
    grid covering ``[release, deadline)``.
    """

    def __init__(self, crossings, release: int, deadline: int, directions):
        self.crossings = tuple(crossings)
        self.release = release
        self.deadline = deadline
        self.directions = {
            key: tuple(
                sorted(
                    listings,
                    key=lambda l: (l.unit_price, l.start, l.listing_id),
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
        first = (
            self.lattice.anchor
            + (self.release - self.lattice.anchor) // step * step
        )
        count = -(-(self.deadline - first) // step)
        if count > MAX_SLOTS:
            raise InfeasibleTransfer(
                f"transfer window spans {count} grid slots of {step}s, above "
                f"the {MAX_SLOTS}-slot planner cap; shorten the window or "
                "coarsen the request"
            )
        return tuple(
            (first + i * step, first + (i + 1) * step) for i in range(count)
        )

    def effective_window(self, slot: tuple[int, int]) -> tuple[int, int]:
        """The slot clipped to ``[release, deadline)`` — payload time."""
        return max(slot[0], self.release), min(slot[1], self.deadline)

    def effective_seconds(self, slot: tuple[int, int]) -> int:
        start, expiry = self.effective_window(slot)
        return max(0, expiry - start)

    # -- offers --------------------------------------------------------------------

    def covering(self, slot: tuple[int, int]) -> dict:
        """Per direction, the listings covering the (purchase) slot."""
        start, expiry = slot
        return {
            key: tuple(l for l in listings if l.covers(start, expiry))
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
        squeeze candidate a budget-tight schedule needs between
        breakpoints.
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
        plateau_skip: bool = True,
    ) -> list[list[SlotOption]]:
        """Per-slot option lists for the whole grid.

        With ``plateau_skip`` (the default) the covering sets are computed
        once per *segment* — a run of slots no listing edge crosses — and
        whole option lists are shared between identically-clipped slots of
        a segment; the naive path re-derives everything per slot (kept as
        the benchmark baseline).
        """
        if not plateau_skip:
            return [
                self.slot_options(
                    i, None, max_rate_kbps, target_bytes
                )
                for i in range(len(self.slots))
            ]
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


def book_from_indexer(
    indexer, crossings, release: int, deadline: int, sync: bool = True
) -> TransferBook:
    """Snapshot a :class:`~repro.marketdata.MarketIndexer` into a book."""
    if sync:
        indexer.sync()
    wanted: dict = {}
    for hop, crossing in enumerate(crossings):
        wanted[(hop, True)] = (
            crossing.isd_as.isd,
            crossing.isd_as.asn,
            crossing.ingress,
            True,
        )
        wanted[(hop, False)] = (
            crossing.isd_as.isd,
            crossing.isd_as.asn,
            crossing.egress,
            False,
        )
    directions: dict = {key: [] for key in wanted}
    records = indexer.listings()
    for key, index_key in wanted.items():
        for record in records:
            if record.key != index_key:
                continue
            if record.start < deadline and record.expiry > release:
                directions[key].append(BookListing.from_indexed(record))
    return TransferBook(crossings, release, deadline, directions)
