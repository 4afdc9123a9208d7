"""Breakpoint flex-offset enumeration == exhaustive step-1 scan.

``PurchasePlanner.quote`` enumerates only the offsets where some hop
resolution can change (lattice crossings of the involved listings plus
the flex endpooints).  These tests pin the two guarantees of that search:

* **equivalence** — on randomized markets the enumerated offsets produce
  exactly the quotes (same listings, windows, prices, representative
  offsets) of a linear scan trying every offset in ``[0, flex_start]``;
* **completeness regression** — the historical scan stepped by the
  finest involved granularity from offset 0, so it skipped windows of
  listings whose lattice anchor is shifted relative to the spec's start;
  the breakpoint enumeration must find the cheaper quote such a listing
  offers.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import T0
from tests.marketdata.conftest import RawMarket

from repro.marketdata import (
    ListingNotFound,
    MarketIndexer,
    PathSpec,
    PurchasePlanner,
)

_market = None
_planner = None
_interfaces = itertools.count(10)


def _world():
    global _market, _planner
    if _market is None:
        _market = RawMarket(seed=7)
        _planner = PurchasePlanner(
            MarketIndexer(_market.ledger, _market.marketplace)
        )
    return _market, _planner


def _crossing(market, in_if, eg_if):
    return SimpleNamespace(isd_as=market.isd_as, ingress=in_if, egress=eg_if)


def _scan_reference(planner, spec, offsets):
    """Replicate ``quote()``'s loop over an explicit offset list: resolve
    every hop, dedup by signature keeping the first offset, rank."""
    rows = []
    seen = set()
    for offset in offsets:
        try:
            hops = tuple(
                planner.resolve_hop(
                    crossing.isd_as,
                    crossing.ingress,
                    crossing.egress,
                    spec.start + offset,
                    spec.expiry + offset,
                    spec.bandwidth_kbps,
                    sync=False,
                )
                for crossing in spec.crossings
            )
        except ListingNotFound:
            continue
        signature = tuple(
            (
                hop.ingress_candidate.listing.listing_id,
                hop.egress_candidate.listing.listing_id,
                hop.start,
                hop.expiry,
            )
            for hop in hops
        )
        if signature in seen:
            continue
        seen.add(signature)
        rows.append((sum(h.price_mist for h in hops), offset, signature))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _quote_rows(quotes):
    return [
        (
            quote.price_mist,
            quote.offset,
            tuple(
                (
                    hop.ingress_candidate.listing.listing_id,
                    hop.egress_candidate.listing.listing_id,
                    hop.start,
                    hop.expiry,
                )
                for hop in quote.hops
            ),
        )
        for quote in quotes
    ]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=383)  # ceil-aligned expiry moves one second after the lattice crossing
def test_breakpoint_enumeration_equals_step1_scan(seed):
    """Every example shares the module-level ``_world`` market, so the
    ledger an example sees depends on the examples that ran before it.
    Each takes two interfaces of its own: that is what keeps its listings,
    and so its quotes, independent of the others — do not reuse interfaces.
    """
    market, planner = _world()
    rng = random.Random(seed)
    in_if, eg_if = next(_interfaces), next(_interfaces)
    for interface, is_ingress in ((in_if, True), (eg_if, False)):
        for _ in range(rng.randint(1, 3)):
            g = rng.choice([30, 60, 90, 120])
            start = T0 + rng.randrange(g) + g * rng.randrange(-2, 1)
            market.issue_and_list(
                interface,
                is_ingress,
                bandwidth_kbps=10_000,
                start=start,
                expiry=start + g * rng.randint(4, 12),
                price=rng.choice([5, 40, 70, 100]),
                granularity=g,
            )
    spec = PathSpec(
        (_crossing(market, in_if, eg_if),),
        start=T0 + rng.randrange(0, 120),
        expiry=T0 + rng.randrange(0, 120) + rng.choice([240, 300, 360]),
        bandwidth_kbps=1000,
        flex_start=rng.choice([0, 45, 90, 150]),
    )
    planner.indexer.sync()
    reference = _scan_reference(planner, spec, range(spec.flex_start + 1))
    try:
        quotes = planner.quote(spec)
    except ListingNotFound:
        assert reference == []
        return
    assert _quote_rows(quotes) == reference


def test_breakpoints_subsume_old_finest_granularity_scan():
    """Offsets {0, g, 2g, ...} of the old scan are all enumerated (the
    old scan's candidates are a subset — the new search can only add)."""
    market, planner = _world()
    in_if, eg_if = next(_interfaces), next(_interfaces)
    for interface, is_ingress in ((in_if, True), (eg_if, False)):
        market.issue_and_list(
            interface, is_ingress, 10_000, T0, T0 + 1200, 50, granularity=60
        )
    spec = PathSpec(
        (_crossing(market, in_if, eg_if),),
        start=T0,
        expiry=T0 + 300,
        bandwidth_kbps=1000,
        flex_start=180,
    )
    planner.indexer.sync()
    offsets = set(planner._flex_offsets(spec))
    assert {0, 60, 120, 180} <= offsets


def test_shifted_anchor_listing_found_only_by_breakpoints():
    """The completeness regression the breakpoint search fixes.

    Base listings are anchored at the spec start with g=60 and price 100;
    a much cheaper pair lives on a lattice anchored 30 seconds later, its
    validity exactly one aligned window wide.  The old scan (finest
    granularity steps: offsets 0, 60, 120) can never align to the cheap
    pair inside its validity; the breakpoint enumeration lands on offset
    30 and must return the cheap quote first.
    """
    market, planner = _world()
    in_if, eg_if = next(_interfaces), next(_interfaces)
    for interface, is_ingress in ((in_if, True), (eg_if, False)):
        market.issue_and_list(
            interface, is_ingress, 10_000, T0, T0 + 900, 100, granularity=60
        )
        market.issue_and_list(
            interface, is_ingress, 10_000, T0 + 30, T0 + 630, 1, granularity=60
        )
    spec = PathSpec(
        (_crossing(market, in_if, eg_if),),
        start=T0,
        expiry=T0 + 600,
        bandwidth_kbps=1000,
        flex_start=120,
    )
    planner.indexer.sync()
    old_offsets = [0, 60, 120]  # finest granularity, anchored at offset 0
    old_rows = _scan_reference(planner, spec, old_offsets)
    assert old_rows, "old scan must still find the expensive base pair"
    old_best_price = old_rows[0][0]

    quotes = planner.quote(spec)
    assert 30 in planner._flex_offsets(spec)
    best = quotes[0]
    assert best.offset == 30
    assert best.price_mist < old_best_price
    cheap_ids = {
        hop.ingress_candidate.listing.listing_id for hop in best.hops
    } | {hop.egress_candidate.listing.listing_id for hop in best.hops}
    listings = {
        listing.listing_id: listing for listing in planner.indexer.listings()
    }
    assert all(listings[lid].start == T0 + 30 for lid in cheap_ids)
