"""Unit coverage for the loop's two small parts: its usage feed and the
adaptive rule."""

import pytest

from repro.admission import AdmissionController, AdmissionRequest, CapacityCalendar
from repro.hummingbird.policing import PerInterfacePolicer, TokenBucketArray
from repro.reclaim import AdaptiveOverbooking, ReclamationEngine

from tests.conftest import EagerOverbooking


class TestUsageFeed:
    """The loop reads each reservation's cumulative priority bytes off the
    policer where it polices them: no copy, no cadence."""

    @staticmethod
    def _watching(policer, booked=1000):
        controller = AdmissionController(100_000)
        claim = controller.admit_reservation(1, True, booked, 0.0, 60.0, tag="watched")
        engine = ReclamationEngine(controller, policer, grace_seconds=1.0)
        engine.track(3, 1, 0, booked, 0.0, 60.0, [(1, True, claim.commitment.commitment_id)])
        return engine

    def test_observed_rate_is_cumulative_average(self):
        policer = PerInterfacePolicer(capacity=8)
        for _ in range(25):  # 25,000 B in one burst, well inside BurstTime
            policer.array_for(1).monitor(3, 100_000, 1000, 1.0, 0)
        # 25,000 B over 2 s = 100,000 bits/s = 100 kbps, a tenth of the booking.
        (event,) = self._watching(policer).scan(2.0)
        assert event.observed_kbps == pytest.approx(100.0)
        (silent,) = self._watching(PerInterfacePolicer(capacity=8)).scan(2.0)
        assert silent.observed_kbps == 0.0  # never seen

    def test_no_active_time_observes_nothing(self):
        """With no grace a scan can judge a reservation the instant it starts:
        no second has passed, so it has used nothing, whatever the policer
        already counted."""
        policer = PerInterfacePolicer(capacity=8)
        policer.array_for(1).monitor(3, 100_000, 1000, 0.0, 0)
        controller = AdmissionController(100_000)
        claim = controller.admit_reservation(1, True, 1000, 0.0, 60.0, tag="starts now")
        engine = ReclamationEngine(controller, policer, grace_seconds=0.0)
        engine.track(3, 1, 0, 1000, 0.0, 60.0, [(1, True, claim.commitment.commitment_id)])
        (event,) = engine.scan(0.0)
        assert event.observed_kbps == 0.0

    def test_invalid_grace(self):
        with pytest.raises(ValueError):
            ReclamationEngine(AdmissionController(1000), None, grace_seconds=-1.0)

    def test_usage_bytes_reads_a_row_without_a_scan(self, monkeypatch):
        """The loop asks once per tracked reservation per scan: a ResID's
        latest row and one set aside for an earlier holder answer alike, and
        neither builds every row."""
        bucket = TokenBucketArray(capacity=8)
        bucket.monitor(3, 1000, 100, 1.0, 0)
        bucket.monitor(3, 1000, 300, 61.0, 60)  # a later holder sets [0, 60) aside

        def every_row(self):
            raise AssertionError("usage_bytes built every row")

        monkeypatch.setattr(TokenBucketArray, "_usage_rows", every_row)
        assert bucket.usage_bytes(3, 0) == 100
        assert bucket.usage_bytes(3, 60) == 300
        assert bucket.usage_bytes(3, 120) == 0 and bucket.usage_bytes(5, 0) == 0

    def test_a_reservation_the_loop_stopped_tracking_leaves_no_row(self):
        """The policer's rows never outgrow the loop's live reservations:
        once one ends and a scan stops tracking it, its bytes are gone."""
        policer = PerInterfacePolicer(capacity=8)
        engine = self._watching(policer)
        policer.array_for(1).monitor(3, 1000, 500, 2.0, 0)
        engine.scan(5.0)
        assert policer.usage_bytes(1, 3, 0) == 500
        engine.scan(60.0)  # the window is over: no longer tracked
        assert engine.tracked() == []
        assert policer.usage_bytes(1, 3, 0) == 0
        assert policer.reservations() == set()


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
