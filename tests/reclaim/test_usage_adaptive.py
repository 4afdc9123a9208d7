"""Unit coverage for the loop's two small parts: sampler and adaptive policy."""

import pytest

from repro.admission import AdmissionController, AdmissionRequest, CapacityCalendar
from repro.hummingbird.policing import PerInterfacePolicer
from repro.reclaim import AdaptiveOverbooking, ReclamationEngine, UsageReporter

from tests.conftest import EagerOverbooking


class TestUsageReporter:
    def test_cadence_gates_sampling(self):
        calls = []

        def source():
            calls.append(1)
            return {1: {(7, 0): 100 * len(calls)}}

        reporter = UsageReporter(source, interval=1.0)
        assert reporter.sample(0.0)
        assert not reporter.sample(0.5)  # too early: no source call
        assert reporter.sample(1.0)
        assert len(calls) == 2
        assert reporter.samples_taken == 2
        assert reporter.usage_bytes(1, 7, 0) == 200
        assert reporter.usage_bytes(1, 7, 60) == 0  # a later holder of ResID 7

    def test_observed_rate_is_cumulative_average(self):
        reporter = UsageReporter(lambda: {1: {(7, 0): 25_000}}, interval=0.1)
        reporter.sample(2.0)
        # 25,000 B over 2 s = 100,000 bits/s = 100 kbps.
        assert reporter.observed_kbps(1, 7, 0, 2.0) == pytest.approx(100.0)
        assert reporter.observed_kbps(1, 7, 0, 0.0) == 0.0
        assert reporter.observed_kbps(9, 9, 0, 2.0) == 0.0  # never seen

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            UsageReporter(lambda: {}, interval=0)

    def test_a_reservation_the_loop_stopped_tracking_leaves_no_row(self):
        """The reporter's rows never outgrow the loop's live reservations:
        once one ends and a scan stops tracking it, its bytes are gone."""
        policer = PerInterfacePolicer(capacity=8)
        reporter = UsageReporter(policer.usage_snapshot, interval=0.25)
        controller = AdmissionController(100_000)
        claim = controller.admit_reservation(1, True, 1000, 0.0, 60.0, tag="ends")
        engine = ReclamationEngine(controller, reporter, grace_seconds=1.0, retain=policer.retain)
        engine.track(3, 1, 0, 1000, 0.0, 60.0, [(1, True, claim.commitment.commitment_id)])
        policer.array_for(1).monitor(3, 1000, 500, 2.0, 0)
        engine.scan(5.0)
        assert reporter.usage_bytes(1, 3, 0) == 500
        engine.scan(60.0)  # the window is over: no longer tracked
        assert engine.tracked() == []
        assert reporter.usage_bytes(1, 3, 0) == 0
        assert reporter.reservations() == set()


class TestAdaptiveOverbooking:
    def test_factor_is_inverse_show_up_rate(self):
        policy = AdaptiveOverbooking(max_factor=3.0)
        calendar = CapacityCalendar(1000)
        assert policy.limit_factor(calendar) == 1.0  # no evidence yet
        assert policy.observe([calendar], 0.5) == pytest.approx(2.0)  # taken whole
        # Honest demand backs off: the show-up EWMA is 0.7 * 0.5 + 0.3 * 1.
        assert policy.observe([calendar], 1.0) == pytest.approx(1 / 0.65)
        # Chronic no-shows push the factor to the ceiling, never past it.
        for _ in range(3):
            policy.observe([calendar], 0.0)
        assert policy.limit_factor(calendar) == 3.0
        assert policy.observe([calendar], -5.0) == 3.0  # clamped input

    def test_ewma_smooths_observations(self):
        policy = AdaptiveOverbooking()
        calendar = CapacityCalendar(1000)
        policy.observe([calendar], 1.0)
        policy.observe([calendar], 0.0)
        assert policy._directions[calendar].showup == pytest.approx(0.7)
        assert policy.limit_factor(calendar) == pytest.approx(1 / 0.7)

    def test_state_is_per_calendar(self):
        policy = AdaptiveOverbooking()
        busy, idle = CapacityCalendar(1000), CapacityCalendar(1000)
        policy.observe([busy], 1.0)
        policy.observe([idle], 0.25)
        assert policy.limit_factor(busy) == 1.0
        assert policy.limit_factor(idle) > 1.0
        assert policy._directions.get(CapacityCalendar(1000)) is None

    def test_the_factor_belongs_to_the_direction_on_every_layer(self):
        policy = AdaptiveOverbooking()
        issued, active = CapacityCalendar(1000), CapacityCalendar(1000)
        assert policy.observe([issued, active], 0.5) == pytest.approx(2.0)
        assert policy.limit_factor(issued) == policy.limit_factor(active)
        assert policy.admit(issued, AdmissionRequest(1500, 0, 100)).admitted

    def test_admission_uses_the_learned_factor(self):
        policy = AdaptiveOverbooking(max_factor=2.0)
        calendar = CapacityCalendar(1000)
        assert not policy.admit(calendar, AdmissionRequest(1500, 0, 100)).admitted
        policy.observe([calendar], 0.5)  # half the demand is phantom
        assert policy.admit(calendar, AdmissionRequest(1500, 0, 100)).admitted
        assert not policy.admit(calendar, AdmissionRequest(600, 0, 100)).admitted

    def test_initial_factor_applies_before_evidence(self):
        policy = EagerOverbooking()
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1400, 0, 100)).admitted

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveOverbooking(max_factor=0.5)
