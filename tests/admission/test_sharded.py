"""A calendar with a shard width: boundary-spanning projections, O(1) expiry, wiring."""

import random

import pytest

from repro.admission import (
    AdmissionController,
    AdmissionRejected,
    CapacityCalendar,
    ProportionalShare,
)
from tests.admission.reference import ReferenceCalendar

SHARD = 100.0


def sharded(capacity=1000):
    return CapacityCalendar(capacity, shard_seconds=SHARD)


class TestProjection:
    def test_spanning_commitment_projects_into_each_shard(self):
        calendar = sharded()
        calendar.commit(600, 50, 250, tag="alice")
        assert calendar.shard_count == 3
        assert calendar.commitment_count == 1  # recorded once at the top
        for window in [(50, 100), (100, 200), (200, 250), (50, 250)]:
            assert calendar.peak_commitment(*window) == 600
        assert calendar.peak_commitment(250, 300) == 0
        assert calendar.tag_peak("alice", 0, 300) == 600

    def test_exact_boundary_window_touches_one_shard(self):
        calendar = sharded()
        calendar.commit(400, 100, 200)
        assert calendar.shard_count == 1
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
        assert calendar.shard_count == 0  # emptied shards are reclaimed
        with pytest.raises(KeyError):
            calendar.release(commitment.commitment_id)

    def test_absurd_shard_span_rejected(self):
        calendar = sharded()
        with pytest.raises(ValueError, match="larger shard_seconds"):
            calendar.commit(100, 0, 1e12)  # ~10^10 shards: a unit typo
        assert calendar.shard_count == 0  # rejected before materializing

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
        shards_before = calendar.shard_count
        assert calendar.expire(500.0) == reference.expire(500.0) > 0
        assert calendar.shard_count < shards_before
        assert all(key * SHARD >= 400 for key in calendar._shards)

    def test_expire_counts_and_releases_like_monolithic(self):
        mono = CapacityCalendar(10_000)
        shard = sharded(10_000)
        windows = [(0, 80), (80, 100), (90, 210), (150, 430), (300, 500)]
        for index, (start, end) in enumerate(windows):
            mono.commit(100, start, end, tag=f"t{index}")
            shard.commit(100, start, end, tag=f"t{index}")
        for now in (100, 150, 210, 1000):
            assert mono.expire(now) == shard.expire(now), now
            assert mono.commitment_count == shard.commitment_count
        assert shard.commitment_count == 0

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
        assert calendar.commitment_count == 0


class TestWiring:
    def test_controller_shard_knob(self):
        assert AdmissionController(1000).calendar(1, True).shard_seconds is None
        controller = AdmissionController(1000, shard_seconds=3600.0)
        calendar = controller.calendar(1, True)
        assert calendar.shard_seconds == 3600.0
        with pytest.raises(ValueError):
            AdmissionController(1000, shard_seconds=0)

    def test_policies_run_against_sharded_calendars(self):
        controller = AdmissionController(
            1000, policy=ProportionalShare(0.5), shard_seconds=SHARD
        )
        granted = controller.admit_issue(1, True, 400, 50.0, 250.0, tag="alice")
        assert granted.admitted
        capped = controller.admit_issue(1, True, 200, 150.0, 350.0, tag="alice")
        assert not capped.admitted  # 400 + 200 > 50% of 1000
        assert controller.quote(50, 1, True, 50.0, 250.0) >= 50
        controller.release(1, True, granted.commitment)
        assert controller.expire(1_000.0) == 0

    def test_as_service_threads_shard_seconds(self):
        import inspect

        from repro.controlplane.asclient import AsService
        from repro.controlplane.workflow import deploy_market
        from repro.netsim.scenarios import contention_experiment

        # the service is handed its controller; the width is the controller's
        assert "admission" in inspect.signature(AsService.__init__).parameters
        for callable_ in (AdmissionController.__init__, deploy_market, contention_experiment):
            assert "shard_seconds" in inspect.signature(callable_).parameters
