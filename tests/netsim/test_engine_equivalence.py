"""Experiments run unchanged on either calendar.

``shard_seconds`` changes *how* a controller's
:class:`~repro.admission.CapacityCalendar` lays out its step function
(one unbounded shard, or one per slot of that width), never *what*
it answers — every buyer's admission outcome, price, and peak is
identical between the two, seed for seed.
"""

import repro.admission
from repro.netsim import (
    auction_experiment,
    flex_market_experiment,
    linear_path,
    path_contention_experiment,
)

SIM_SHARD = 600.0
WIDTHS = (None, SIM_SHARD)  # monolithic, sharded


def test_auction_experiment_outcomes_identical_across_backends():
    topology, path = linear_path(3)
    results = [
        auction_experiment(topology, path, duration=0, seed=3, shard_seconds=width)
        for width in WIDTHS
    ]

    def outcomes(result):
        return (
            [
                (b.buyer, b.posted_admitted, b.posted_paid_mist, b.posted_reason,
                 b.auction_won, b.auction_paid_mist, b.auction_reason)
                for b in result.buyers
            ],
            result.posted_revenue_mist,
            result.auction_revenue_mist,
            result.clearing_price_micromist,
        )

    assert outcomes(results[0]) == outcomes(results[1])


def test_flex_market_experiment_outcomes_identical_across_backends():
    results = [
        flex_market_experiment(duration=0.3, seed=1, shard_seconds=width)
        for width in WIDTHS
    ]

    def outcomes(result):
        return (
            [
                (b.buyer, b.flex_start, b.offset, b.start, b.expiry,
                 b.paid_price_mist, b.estimated_price_mist)
                for b in result.buyers
            ],
            result.peak_window,
            result.peak_price_micromist,
            result.curve_prices,
        )

    assert outcomes(results[0]) == outcomes(results[1])


def test_path_contention_outcomes_identical_across_backends(monkeypatch):
    """The experiment shards its bottleneck hop; the other arm forces every
    hop's controller monolithic (the experiment takes no ``shard_seconds``)."""
    topology, path = linear_path(3)
    sharded = path_contention_experiment(topology, path, num_buyers=8)

    real = repro.admission.AdmissionController
    widths_seen = []

    def monolithic(*args, shard_seconds=None, **kwargs):
        widths_seen.append(shard_seconds)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.admission, "AdmissionController", monolithic)
    mono = path_contention_experiment(topology, path, num_buyers=8)
    assert SIM_SHARD in widths_seen  # the override did replace a sharded hop

    def outcomes(result):
        return (
            [
                (b.buyer, b.admitted, b.failed_hop, b.reason)
                for b in result.buyers
            ],
            result.hop_peaks_kbps,
            result.rollback_restores_state,
            result.oversold,
        )

    assert outcomes(mono) == outcomes(sharded)


def test_path_contention_rollback_holds_on_the_sharded_hop():
    """The pathadm screen/commit fingerprints cover the sharded calendar."""
    topology, path = linear_path(4)
    result = path_contention_experiment(topology, path, num_buyers=6)
    assert result.rollback_restores_state
    assert not result.oversold
