"""Narrow shards: boundary-spanning projections, O(1) expiry; the width's wiring."""

import random

import pytest

from repro.admission import (
    DEFAULT_SHARD_SECONDS,
    AdmissionController,
    AdmissionRejected,
    CapacityCalendar,
)
from tests.admission.reference import ReferenceCalendar

SHARD = 100.0


def sharded(capacity=1000):
    return CapacityCalendar(capacity, shard_seconds=SHARD)


class TestProjection:
    def test_spanning_commitment_projects_into_each_shard(self):
        calendar = sharded()
        calendar.commit(600, 50, 250, tag="alice")
        assert len(calendar._shards) == 3
        assert len(calendar.commitments()) == 1  # recorded once at the top
        for window in [(50, 100), (100, 200), (200, 250), (50, 250)]:
            assert calendar.peak_commitment(*window) == 600
        assert calendar.peak_commitment(250, 300) == 0

    def test_exact_boundary_window_touches_one_shard(self):
        calendar = sharded()
        calendar.commit(400, 100, 200)
        assert len(calendar._shards) == 1
        assert calendar.peak_commitment(0, 300) == 400

    def test_admit_rejects_over_capacity_across_boundary(self):
        calendar = sharded()
        calendar.admit(600, 50, 150)
        with pytest.raises(AdmissionRejected):
            calendar.admit(500, 140, 160)  # peak 600 spans the boundary
        assert calendar.admit(400, 140, 160).bandwidth_kbps == 400

    def test_release_restores_every_shard(self):
        calendar = sharded()
        commitment = calendar.commit(600, 50, 350)
        calendar.release(commitment.commitment_id)
        assert calendar.peak_commitment(0, 400) == 0
        assert len(calendar._shards) == 0  # emptied shards are reclaimed
        with pytest.raises(KeyError):
            calendar.release(commitment.commitment_id)

    def test_absurd_shard_span_rejected(self):
        calendar = sharded()
        with pytest.raises(ValueError, match="larger shard_seconds"):
            calendar.commit(100, 0, 1e12)  # ~10^10 shards: a unit typo
        assert len(calendar._shards) == 0  # rejected before materializing

    def test_missing_shards_count_as_level_zero(self):
        calendar = sharded()
        calendar.commit(500, 0, 50)
        calendar.commit(300, 950, 1000)
        assert calendar.peak_commitment(0, 1000) == 500
        assert calendar.headroom(400, 600) == 1000


class TestExpire:
    def test_whole_shards_behind_now_are_dropped(self):
        calendar = sharded()
        reference = ReferenceCalendar(calendar.capacity_kbps)
        rng = random.Random(9)
        for _ in range(500):
            start = rng.uniform(0, 900)
            bandwidth = rng.randint(1, 99)
            calendar.commit(bandwidth, start, start + 30)
            reference.commit(bandwidth, start, start + 30)
        shards_before = len(calendar._shards)
        assert calendar.expire(500.0) == reference.expire(500.0) > 0
        assert len(calendar._shards) < shards_before
        assert all(key * SHARD >= 400 for key in calendar._shards)

    def test_expire_counts_and_releases_like_one_day_wide_shard(self):
        day = CapacityCalendar(10_000)
        shard = sharded(10_000)
        windows = [(0, 80), (80, 100), (90, 210), (150, 430), (300, 500)]
        for index, (start, end) in enumerate(windows):
            day.commit(100, start, end, tag=f"t{index}")
            shard.commit(100, start, end, tag=f"t{index}")
        for now in (100, 150, 210, 1000):
            assert day.expire(now) == shard.expire(now), now
            assert len(day.commitments()) == len(shard.commitments())
        assert len(shard.commitments()) == 0

    def test_active_spanning_commitment_survives_shard_drop(self):
        calendar = sharded()
        spanning = calendar.commit(500, 50, 450, tag="live")
        assert calendar.expire(200.0) == 0  # still active: not released
        # History behind now is forgotten with the dropped shard, but the
        # live tail is intact and still releasable.
        assert calendar.peak_commitment(200, 450) == 500
        calendar.release(spanning.commitment_id)
        assert calendar.peak_commitment(200, 450) == 0

    def test_end_exactly_at_now_expires(self):
        calendar = sharded()
        calendar.commit(100, 20, 200)
        assert calendar.expire(200.0) == 1
        assert len(calendar.commitments()) == 0


class TestWiring:
    def test_controller_shard_knob(self):
        assert AdmissionController(1000).calendar(1, True).shard_seconds == 86_400.0
        assert CapacityCalendar(1000).shard_seconds == DEFAULT_SHARD_SECONDS
        controller = AdmissionController(1000, shard_seconds=3600)
        calendar = controller.calendar(1, True)
        assert calendar.shard_seconds == 3600.0
        assert type(calendar.shard_seconds) is float

    @pytest.mark.parametrize("width", [0, -100.0, float("inf"), float("nan")])
    def test_a_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="finite and positive"):
            AdmissionController(1000, shard_seconds=width)
        with pytest.raises(ValueError, match="finite and positive"):
            CapacityCalendar(1000, shard_seconds=width)

    def test_there_is_no_unbounded_geometry(self):
        with pytest.raises(TypeError):
            CapacityCalendar(1000, shard_seconds=None)

    def test_policies_run_against_sharded_calendars(self):
        controller = AdmissionController(1000, shard_seconds=SHARD)
        granted = controller.admit_issue(1, True, 400, 50.0, 250.0, tag="alice")
        assert granted.admitted
        full = controller.admit_issue(1, True, 700, 150.0, 350.0, tag="bob")
        assert not full.admitted  # 400 + 700 > 1000 across the 200 s boundary
        assert controller.quote(50, 1, True, 50.0, 250.0) >= 50
        controller.release(1, True, granted.commitment)
        assert all(c.expire(1_000.0) == 0 for c in controller._calendars.values())

    def test_the_width_is_an_option_only_where_a_caller_sets_one(self):
        import inspect

        from repro.controlplane.asclient import AsService
        from repro.controlplane.workflow import deploy_market
        from repro.netsim import (
            auction_experiment,
            contention_experiment,
            deadline_experiment,
            flex_market_experiment,
        )

        # the service is handed its controller; the width is the controller's
        assert "admission" in inspect.signature(AsService.__init__).parameters
        for callable_ in (CapacityCalendar, AdmissionController, deploy_market):
            parameter = inspect.signature(callable_).parameters["shard_seconds"]
            assert parameter.default == DEFAULT_SHARD_SECONDS
        for experiment in (
            auction_experiment,
            contention_experiment,
            deadline_experiment,
            flex_market_experiment,
        ):
            assert "shard_seconds" not in inspect.signature(experiment).parameters
