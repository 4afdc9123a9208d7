"""Experiments run unchanged at any shard width.

``shard_seconds`` changes *how* a controller's
:class:`~repro.admission.CapacityCalendar` lays out its step function
(one shard per slot of that width), never *what* it answers — every
buyer's admission outcome, price, and peak is identical between the
day-wide default and narrow shards, seed for seed.  No experiment takes a
width, so the narrow arm swaps in a controller whose every calendar is
:data:`NARROW` seconds wide, wherever the experiment builds one.
"""

import pytest

import repro.admission
import repro.controlplane.workflow
from repro.admission import DEFAULT_SHARD_SECONDS
from repro.netsim import (
    auction_experiment,
    deadline_experiment,
    flex_market_experiment,
    linear_path,
    path_contention_experiment,
    scenarios,
)

NARROW = 600.0


@pytest.fixture
def narrow(monkeypatch):
    """Call ``run()`` with every controller built on ``NARROW``-wide shards.

    Returns the widths the experiment asked for, so a test can see that
    the swap did replace a controller.
    """
    real = repro.admission.AdmissionController
    asked: list[float] = []

    class NarrowController(real):
        def __init__(self, *args, shard_seconds=DEFAULT_SHARD_SECONDS, **kwargs):
            asked.append(shard_seconds)
            super().__init__(*args, shard_seconds=NARROW, **kwargs)

    def run(experiment, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(repro.admission, "AdmissionController", NarrowController)
            patch.setattr(
                repro.controlplane.workflow, "AdmissionController", NarrowController
            )
            result = experiment(*args, **kwargs)
        assert asked, "no controller was built on narrow shards"
        return result

    run.asked = asked
    return run


def test_auction_experiment_outcomes_identical_across_backends(
    narrow, experiment_runs, monkeypatch
):
    day = experiment_runs(auction_experiment, 3, constants={"VALUATIONS_SEED": 3}, duration=0)
    monkeypatch.setattr(scenarios, "VALUATIONS_SEED", 3)
    narrowed = narrow(auction_experiment, *linear_path(3), duration=0)

    def outcomes(result):
        return (
            result.buyers,
            result.posted_revenue_mist,
            result.auction_revenue_mist,
            result.clearing_price_micromist,
        )

    assert outcomes(day) == outcomes(narrowed)


def test_flex_market_experiment_outcomes_identical_across_backends(narrow):
    day = flex_market_experiment(duration=0.3)
    narrowed = narrow(flex_market_experiment, duration=0.3)

    def outcomes(result):
        return (
            [
                (b.buyer, b.quoted_price_micromist, b.paid_mist)
                for b in result.buyers
            ],
            result.window_starts,
            result.peak_window,
            result.peak_price_micromist,
            result.curve_prices,
        )

    assert outcomes(day) == outcomes(narrowed)


def test_path_contention_outcomes_identical_across_backends(narrow, experiment_runs):
    """Every hop's calendars are day-wide in one arm and ``NARROW`` in the
    other."""
    day = experiment_runs(path_contention_experiment, 3, num_buyers=8)
    narrowed = narrow(path_contention_experiment, *linear_path(3), num_buyers=8)
    assert DEFAULT_SHARD_SECONDS in narrow.asked  # a day-wide hop was replaced

    def outcomes(result):
        return (
            result.buyers,
            result.failed_hops,
            result.hop_peaks_kbps,
            result.oversold,
        )

    assert outcomes(day) == outcomes(narrowed)


def test_deadline_experiment_outcomes_identical_across_backends(narrow):
    day = deadline_experiment()
    narrowed = narrow(deadline_experiment)
    assert len(narrowed.records) == 3
    moved = sum(record.bytes_moved for record in narrowed.records)
    assert moved >= 0.9 * sum(record.oracle_bytes for record in narrowed.records)
    assert narrowed.records == day.records
