"""Registry unit tests: buckets, cardinality guard, the null instrument."""

import collections
import math
import random

import pytest

from repro.admission import AdmissionController
from repro.ledger.committee import Committee
from repro.ledger.executor import LedgerExecutor
from repro.ledger.transactions import Command, Transaction
from repro.marketdata import ListingQuery, MarketIndexer
from repro.telemetry import (
    BUCKETS,
    Histogram,
    LabelCardinalityError,
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    set_registry,
    snapshot,
)
from repro.telemetry.registry import _NULL_INSTRUMENT, MAX_LABEL_SETS, _NullInstrument
from tests.marketdata.conftest import RawMarket


# -- histogram bucket boundaries ----------------------------------------------


def test_histogram_edge_observation_lands_in_its_bucket():
    child = Histogram((1.0, 2.0, 4.0))
    child.observe(2.0)  # exactly on an edge: the bucket with bound >= value
    assert child.counts == [0, 1, 0, 0]
    child.observe(1.5)
    assert child.counts == [0, 2, 0, 0]
    child.observe(0.0)
    assert child.counts == [1, 2, 0, 0]


def test_histogram_overflow_bucket():
    child = Histogram((1.0, 2.0))
    child.observe(99.0)
    assert child.counts == [0, 0, 1]
    assert child.count == 1
    assert child.sum == 99.0
    # The overflow bucket reports the last finite edge for any quantile.
    assert child.quantile(0.5) == 2.0


def test_every_histogram_family_has_the_fixed_edges():
    registry = MetricsRegistry()
    first = registry.histogram("a", labelnames=("kind",))
    second = registry.histogram("b")
    assert first.labels("x").bounds == second.labels().bounds == BUCKETS
    assert [row["buckets"] for row in snapshot(registry)] == [list(BUCKETS)] * 2


def test_histogram_bucket_count_is_edges_plus_one():
    child = MetricsRegistry().histogram("h").labels()
    assert len(child.counts) == len(BUCKETS) + 1


def test_histogram_fixed_edges_strictly_ascend():
    """``observe`` bisects the edges: they must ascend, with no repeat that
    would leave a bucket no value can reach."""
    assert all(low < high for low, high in zip(BUCKETS, BUCKETS[1:]))


def test_quantile_empty_and_range():
    child = Histogram((1.0,))
    assert math.isnan(child.quantile(0.5))
    with pytest.raises(ValueError):
        child.quantile(1.5)
    with pytest.raises(ValueError):
        child.quantile(-0.1)


def test_quantile_interpolates_within_bucket():
    child = Histogram((1.0, 2.0))
    for _ in range(10):
        child.observe(1.5)  # all ten in the (1, 2] bucket
    # rank q*10 sits inside the bucket; interpolation stays within its edges
    assert 1.0 <= child.quantile(0.1) <= 2.0
    assert child.quantile(1.0) == 2.0
    assert child.sum / child.count == pytest.approx(1.5)


# -- label cardinality guard --------------------------------------------------


def test_label_cardinality_guard_trips():
    family = MetricsRegistry().counter("c", labelnames=("id",))
    for value in range(MAX_LABEL_SETS):
        family.labels(value).inc()
    with pytest.raises(LabelCardinalityError):
        family.labels("one-too-many")
    # Existing children keep working after the guard trips.
    family.labels(0).inc()
    assert family.labels(0).value == 2.0


def test_labels_arity_checked():
    registry = MetricsRegistry()
    family = registry.gauge("g", labelnames=("a", "b"))
    with pytest.raises(ValueError):
        family.labels("only-one")


def test_labels_are_stringified_and_cached():
    registry = MetricsRegistry()
    family = registry.counter("c", labelnames=("interface",))
    assert family.labels(3) is family.labels("3")


def test_redeclare_same_schema_returns_same_family():
    registry = MetricsRegistry()
    first = registry.counter("c", "help", ("x",))
    assert registry.counter("c", "other help", ("x",)) is first


def test_redeclare_different_schema_rejected():
    registry = MetricsRegistry()
    registry.counter("c", labelnames=("x",))
    with pytest.raises(ValueError):
        registry.counter("c", labelnames=("y",))
    with pytest.raises(ValueError):
        registry.gauge("c", labelnames=("x",))


# -- the null instrument ------------------------------------------------------


def test_null_registry_hands_out_one_shared_singleton():
    assert NULL_REGISTRY.counter("a") is _NULL_INSTRUMENT
    assert NULL_REGISTRY.gauge("b") is _NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("c") is _NULL_INSTRUMENT
    assert _NULL_INSTRUMENT.labels("any", "labels") is _NULL_INSTRUMENT


def test_null_instrument_calls_do_nothing():
    assert _NullInstrument.__slots__ == ()  # no state a call could write
    assert _NULL_INSTRUMENT.inc(7) is None
    assert _NULL_INSTRUMENT.set(42.0) is None
    assert _NULL_INSTRUMENT.observe(1.0) is None


def test_an_unobserved_subsystem_drives_the_null_instrument(monkeypatch):
    """No subsystem asks whether it is observed: with no harness active, an
    admission, a ledger submit and an index query call the null instrument
    where an observed run calls live ones."""
    assert get_registry() is NULL_REGISTRY
    calls = collections.Counter()
    for name in ("inc", "observe", "set"):
        monkeypatch.setattr(
            _NullInstrument, name, lambda self, *args, name=name: calls.update([name])
        )
    market = RawMarket()
    market.issue_and_list(1, True, 1000, 600, 4200)  # a Listed event for the index

    AdmissionController(capacity_kbps=1000).admit_issue(1, True, 600, 0, 3600)
    LedgerExecutor(market.ledger, Committee(random.Random(0))).submit(
        Transaction(market.buyer.address, [Command("coin", "mint", {"amount": 1})])
    )
    found = MarketIndexer(market.ledger, market.marketplace).best(
        ListingQuery(market.isd_as, 1, True, 600, 1200, 100)
    )

    assert found is not None
    assert set(calls) == {"inc", "observe", "set"}


def test_set_registry_installs_and_restores():
    live = MetricsRegistry()
    previous = set_registry(live)
    try:
        assert get_registry() is live
    finally:
        assert set_registry(previous) is live
    assert get_registry() is previous
