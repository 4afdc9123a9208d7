"""Market data: the one off-chain view of the marketplace + purchase planning.

The off-chain half of the marketplace (§3.2), and the only place off-chain
code learns what the marketplace holds and what the contract will accept:
an event-driven :class:`MarketIndexer` that folds every market event —
live listings per interface direction, open auctions with their legs,
settle outcomes — the listing record that carries the contract's align /
carve / ceil-price rule (:class:`IndexedListing`, :class:`Lattice`,
:func:`price_mist`), and a :class:`PurchasePlanner` that turns declarative
:class:`ListingQuery`/:class:`PathSpec` requirements into ranked,
scarcity-aware :class:`PathQuote` answers.
"""

from repro.marketdata.indexer import MarketIndexer
from repro.marketdata.naive import iter_auctions, iter_listings, naive_best_listing
from repro.marketdata.planner import HopQuote, PathQuote, PurchasePlanner
from repro.marketdata.query import (
    MICROMIST,
    BudgetExceeded,
    Candidate,
    IncompatibleGranularity,
    IndexedListing,
    Lattice,
    ListingNotFound,
    ListingQuery,
    OpenAuction,
    PathSpec,
    direction_keys,
    fold_lattices,
    price_mist,
)

__all__ = [
    "MICROMIST",
    "BudgetExceeded",
    "Candidate",
    "HopQuote",
    "IncompatibleGranularity",
    "IndexedListing",
    "Lattice",
    "ListingNotFound",
    "ListingQuery",
    "MarketIndexer",
    "OpenAuction",
    "PathQuote",
    "PathSpec",
    "PurchasePlanner",
    "direction_keys",
    "fold_lattices",
    "iter_auctions",
    "iter_listings",
    "naive_best_listing",
    "price_mist",
]
