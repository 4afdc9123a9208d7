"""Regression tests for FlowMetrics edge cases (ISSUE 6 satellite).

No samples received, zero-duration windows, receiver-only flows, and
duplicate deliveries must all yield defined values — plus the port onto
the shared telemetry histogram must agree with the exact latency list.
"""

import math

import pytest

from repro.netsim.metrics import LATENCY_BOUNDS, FlowMetrics
from repro.telemetry.registry import Histogram


class TestNoSamples:
    def test_percentile_of_empty_flow_is_nan(self):
        metrics = FlowMetrics(1)
        assert math.isnan(metrics.latency_percentile(50))

    def test_out_of_range_percentile_raises_even_when_empty(self):
        metrics = FlowMetrics(1)
        with pytest.raises(ValueError):
            metrics.latency_percentile(101)
        with pytest.raises(ValueError):
            metrics.latency_percentile(-1)

    def test_empty_flow_summary_is_defined(self):
        summary = FlowMetrics(1).summary()
        assert summary["loss_rate"] == 0.0
        assert summary["goodput_mbps"] == 0.0
        assert summary["p50_ms"] is None
        assert summary["p99_ms"] is None

    def test_sent_but_nothing_received(self):
        metrics = FlowMetrics(1)
        metrics.record_sent(1000, 0.0)
        assert metrics.goodput_bps() == 0.0
        assert metrics.loss_rate == 1.0
        assert math.isnan(metrics.histogram.quantile(0.5))


class TestZeroDuration:
    def test_explicit_zero_duration(self):
        metrics = FlowMetrics(1)
        metrics.record_sent(1000, 0.0)
        metrics.record_received(1000, 0.0, 0.1)
        assert metrics.goodput_bps(duration=0.0) == 0.0
        assert metrics.goodput_bps(duration=-1.0) == 0.0

    def test_instantaneous_window(self):
        # Single packet sent and received at the same instant: the active
        # window is zero-length, so the rate is undefined -> 0.0, not inf.
        metrics = FlowMetrics(1)
        metrics.record_sent(1000, 5.0)
        metrics.record_received(1000, 5.0, 5.0)
        assert metrics.goodput_bps() == 0.0


class TestReceiverOnlyFlow:
    def test_window_falls_back_to_reception_times(self):
        # A sink that only sees deliveries (no record_sent) still reports a
        # rate over its observed reception window.
        metrics = FlowMetrics(1)
        metrics.record_received(1000, 0.0, 1.0)
        metrics.record_received(1000, 1.0, 3.0)
        assert metrics.first_sent is None
        assert metrics.goodput_bps() == pytest.approx(2000 * 8 / 2.0)


class TestDuplicateDeliveries:
    def test_loss_rate_clamped_to_zero(self):
        metrics = FlowMetrics(1)
        metrics.record_sent(100, 0.0)
        metrics.record_received(100, 0.0, 0.1)
        metrics.record_received(100, 0.0, 0.2)  # duplicate delivery
        assert metrics.loss_rate == 0.0


class TestSharedHistogramPort:
    def test_every_observation_mirrors_into_the_histogram(self):
        metrics = FlowMetrics(1)
        for i in range(10):
            metrics.record_received(10, float(i), float(i) + (i + 1) / 100)
        assert isinstance(metrics.histogram, Histogram)
        assert metrics.histogram.count == len(metrics.latencies) == 10
        assert metrics.histogram.sum == pytest.approx(sum(metrics.latencies))

    def test_bucketed_quantile_brackets_the_exact_percentile(self):
        metrics = FlowMetrics(1)
        for i in range(100):
            metrics.record_received(10, 0.0, 0.001 + i * 0.0005)
        exact = metrics.latency_percentile(50)
        estimate = metrics.histogram.quantile(0.5)
        # The estimate sits within one bucket of the exact value.
        edges = [0.0, *LATENCY_BOUNDS]
        bucket = next(
            (lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < exact <= hi
        )
        assert bucket[0] <= estimate <= bucket[1]

    def test_histograms_are_per_flow(self):
        one, two = FlowMetrics(1), FlowMetrics(2)
        one.record_received(10, 0.0, 0.5)
        assert one.histogram.count == 1
        assert two.histogram.count == 0

    def test_exact_percentiles_unchanged_by_the_port(self):
        # The seed behaviour the netsim suite asserts on must survive.
        metrics = FlowMetrics(1)
        for i in range(10):
            metrics.record_sent(10, float(i))
            metrics.record_received(10, float(i), float(i) + (i + 1) / 100)
        assert metrics.latency_percentile(0) == pytest.approx(0.01)
        assert metrics.latency_percentile(100) == pytest.approx(0.10)
