"""Capacity calendar: step-function accounting, bulk path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import AdmissionRejected, CapacityCalendar


class TestPointOperations:
    def test_empty_calendar_has_zero_commitment(self):
        calendar = CapacityCalendar(1000)
        assert calendar.peak_commitment(0, 100) == 0
        assert calendar.headroom(0, 100) == 1000
        assert calendar.utilization(0, 100) == 0.0

    def test_admit_tracks_peak(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(600, 0, 100)
        assert calendar.peak_commitment(0, 100) == 600
        assert calendar.peak_commitment(50, 150) == 600
        assert calendar.peak_commitment(100, 200) == 0  # half-open: ends at 100

    def test_overlapping_windows_stack(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(400, 0, 100)
        calendar.admit(400, 50, 150)
        assert calendar.peak_commitment(0, 150) == 800
        assert calendar.peak_commitment(0, 50) == 400
        assert calendar.peak_commitment(100, 150) == 400

    def test_over_capacity_rejected(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(600, 0, 100)
        with pytest.raises(AdmissionRejected):
            calendar.admit(600, 50, 150)
        # The failed admit left no residue.
        assert calendar.peak_commitment(0, 200) == 600
        # Disjoint in time still fits.
        calendar.admit(600, 100, 200)

    def test_exact_fill_admitted(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(1000, 0, 100)
        assert calendar.headroom(0, 100) == 0

    def test_release_restores_headroom(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(800, 0, 100)
        calendar.release(commitment.commitment_id)
        assert calendar.peak_commitment(0, 100) == 0
        assert calendar.boundary_count == 0  # change points fully coalesced
        with pytest.raises(KeyError):
            calendar.release(commitment.commitment_id)

    def test_release_interior_window(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(100, 0, 300)
        inner = calendar.admit(200, 100, 200)
        calendar.release(inner.commitment_id)
        assert calendar.peak_commitment(0, 300) == 100
        assert calendar.boundary_count == 2  # only [0, 300) edges remain

    def test_invalid_inputs(self):
        calendar = CapacityCalendar(1000)
        with pytest.raises(ValueError):
            calendar.peak_commitment(10, 10)
        with pytest.raises(ValueError):
            calendar.admit(0, 0, 10)
        with pytest.raises(ValueError):
            calendar.admit(10, 5, 5)
        with pytest.raises(ValueError):
            CapacityCalendar(0)

    def test_float_bandwidth_coerced_and_drains_to_zero(self):
        """Commit and release must move the same value: a float input is
        coerced once, so release leaves no fractional residue."""
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(100.7, 0, 10)
        assert commitment.bandwidth_kbps == 100
        assert calendar.peak_commitment(0, 10) == 100
        calendar.release(commitment.commitment_id)
        assert calendar.peak_commitment(0, 10) == 0
        assert calendar.boundary_count == 0

    def test_expire_releases_ended_commitments(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(100, 0, 50)
        keep = calendar.admit(100, 0, 200)
        assert calendar.expire(100) == 1
        assert calendar.commitment_count == 1
        assert calendar.get(keep.commitment_id) is keep

    def test_tag_peak_isolates_one_owner(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(300, 0, 100, tag="alice")
        calendar.admit(200, 50, 150, tag="alice")
        calendar.admit(400, 0, 150, tag="bob")
        assert calendar.tag_peak("alice", 0, 150) == 500
        assert calendar.tag_peak("bob", 0, 150) == 400
        assert calendar.tag_peak("carol", 0, 150) == 0


INF, NAN = float("inf"), float("nan")
GEOMETRIES = [pytest.param(None, id="unbounded"), pytest.param(100.0, id="sharded")]
REFUSED_WINDOWS = [(5, 0.0, INF), (5, -INF, 10.0), (5, NAN, 10.0), (5, 10, 10), (5, 20, 10), (0, 0, 10)]
REFUSED = [
    *[(method, args) for method in ("commit", "try_commit") for args in REFUSED_WINDOWS],
    # ..., tag, track: untracked is the load that could never be released
    *[("commit_batch", ([bw], [start], [end], "", False)) for bw, start, end in REFUSED_WINDOWS],
    ("commit_batch", ([5, 5], [0.0], [10.0])),  # not parallel
    ("commit_batch", ([5, 5], [0.0, 0.0], [10.0, INF])),  # one bad row refuses the batch
]


@pytest.mark.parametrize("shard_seconds", GEOMETRIES)
class TestOneValidation:
    """commit, try_commit and commit_batch refuse the same inputs, at either
    geometry, before touching anything."""

    @staticmethod
    def _busy(shard_seconds):
        calendar = CapacityCalendar(1000, shard_seconds)
        calendar.commit(300, 50, 250, "a")
        calendar.commit_batch([100], [120.0], [130.0], track=False)
        calendar.expire(110)
        return calendar

    @pytest.mark.parametrize("method, args", REFUSED)
    def test_a_refused_call_leaves_the_fingerprint_alone(self, shard_seconds, method, args):
        calendar = self._busy(shard_seconds)
        before = calendar.fingerprint()
        with pytest.raises(ValueError):
            getattr(calendar, method)(*args)
        assert calendar.fingerprint() == before

    def test_untracked_batch_cannot_pin_the_link_forever(self, shard_seconds):
        calendar = CapacityCalendar(1000, shard_seconds)
        with pytest.raises(ValueError, match="finite"):
            calendar.commit_batch([5], [0.0], [INF], track=False)
        assert calendar.peak_commitment(0, 10**9) == 0

    def test_try_commit_refuses_more_than_the_link_before_any_shard_exists(
        self, shard_seconds
    ):
        calendar = CapacityCalendar(1000, shard_seconds)
        before = calendar.fingerprint()
        assert calendar.try_commit(1001, 0, 10) is None
        assert calendar.fingerprint() == before
        assert calendar.try_commit(1000, 0, 10) is not None


def test_a_commitment_comes_back_as_it_was_given_at_either_geometry():
    histories = []
    for shard_seconds in (None, 100.0):
        calendar = CapacityCalendar(1000, shard_seconds)
        first = calendar.commit(300, 0, 250, "a")
        second = calendar.try_commit(200, 50.5, 150, "b")
        batch = calendar.commit_batch([5, 7], [10, 20], [120, 30.5])
        shrunk = calendar.reclaim(first.commitment_id, 100)
        released = calendar.release(second.commitment_id)
        histories.append([first, second, *batch, shrunk, released, *calendar.commitments()])
    unbounded, sharded = histories
    assert unbounded == sharded
    assert repr(unbounded) == repr(sharded)  # same types: 0 stays 0, not 0.0
    assert (first.start, first.end, second.start) == (0, 250, 50.5)
    assert type(first.start) is int and type(second.end) is int


def test_a_float_shard_edge_strands_no_piece():
    """0.1 * 3 == 0.30000000000000004 sits in slot 3 by division and on its
    lower edge by multiplication: that slot's piece is empty, not an error
    half-way through a projection."""
    calendar = CapacityCalendar(1000, shard_seconds=0.1)
    before = calendar.fingerprint()
    commitment = calendar.commit(5, 0.05, 0.1 * 3)
    assert calendar.peak_commitment(0, 1) == 5
    calendar.release(commitment.commitment_id)
    assert calendar.fingerprint() == before


class TestBulkPath:
    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(7)
        calendar = CapacityCalendar(10**9)
        for _ in range(200):
            start = int(rng.integers(0, 1000))
            calendar.commit(int(rng.integers(1, 50)), start, start + int(rng.integers(1, 100)))
        starts = rng.integers(0, 1100, 400).astype(float)
        ends = starts + rng.integers(1, 120, 400)
        bulk = calendar.bulk_peak(starts, ends)
        scalar = [calendar.peak_commitment(s, e) for s, e in zip(starts, ends)]
        assert bulk.tolist() == scalar

    def test_bulk_matches_scalar_across_block_boundaries(self):
        """Wide windows overlap thousands of boundaries, so the two-level
        range maximum exercises whole blocks, not just block edges."""
        rng = np.random.default_rng(3)
        calendar = CapacityCalendar(10**9)
        starts = rng.uniform(0, 10_000, 5000)
        calendar.commit_batch(
            rng.integers(1, 50, 5000), starts, starts + rng.uniform(1, 500, 5000),
            track=False,
        )
        qs = rng.uniform(0, 11_000, 100)
        qe = qs + rng.uniform(1, 5000, 100)
        bulk = calendar.bulk_peak(qs, qe)
        scalar = [calendar.peak_commitment(s, e) for s, e in zip(qs, qe)]
        assert bulk.tolist() == scalar

    def test_bulk_cache_invalidated_by_mutation(self):
        calendar = CapacityCalendar(1000)
        calendar.commit(100, 0, 100)
        assert calendar.bulk_peak([0.0], [50.0]).tolist() == [100]
        calendar.commit(200, 0, 100)
        assert calendar.bulk_peak([0.0], [50.0]).tolist() == [300]

    def test_bulk_admissible_scalar_and_array_bandwidth(self):
        calendar = CapacityCalendar(1000)
        calendar.commit(600, 0, 100)
        admissible = calendar.bulk_admissible(500, [0.0, 100.0], [50.0, 200.0])
        assert admissible.tolist() == [False, True]
        admissible = calendar.bulk_admissible([400, 1500], [0.0, 100.0], [50.0, 200.0])
        assert admissible.tolist() == [True, False]

    def test_bulk_empty_and_invalid(self):
        calendar = CapacityCalendar(1000)
        assert calendar.bulk_peak([], []).size == 0
        with pytest.raises(ValueError):
            calendar.bulk_peak([0.0], [0.0])
        with pytest.raises(ValueError):
            calendar.bulk_peak([0.0, 1.0], [1.0])

    def test_commit_batch_equals_sequential(self):
        rng = np.random.default_rng(11)
        batch = CapacityCalendar(10**9)
        sequential = CapacityCalendar(10**9)
        bandwidths = rng.integers(1, 50, 150)
        starts = rng.integers(0, 500, 150).astype(float)
        ends = starts + rng.integers(1, 80, 150)
        batch.commit_batch(bandwidths, starts, ends, track=False)
        for bw, s, e in zip(bandwidths, starts, ends):
            sequential.commit(int(bw), float(s), float(e))
        qs = rng.integers(0, 600, 200).astype(float)
        qe = qs + rng.integers(1, 100, 200)
        assert batch.bulk_peak(qs, qe).tolist() == sequential.bulk_peak(qs, qe).tolist()

    def test_commit_batch_on_top_of_existing(self):
        calendar = CapacityCalendar(10**9)
        calendar.commit(100, 0, 100)
        calendar.commit_batch([50, 50], [50.0, 200.0], [150.0, 300.0], track=False)
        assert calendar.peak_commitment(0, 300) == 150
        assert calendar.peak_commitment(200, 300) == 50

    def test_commit_batch_tracked_commitments_releasable(self):
        calendar = CapacityCalendar(1000)
        commitments = calendar.commit_batch([100, 200], [0.0, 0.0], [50.0, 50.0])
        assert calendar.peak_commitment(0, 50) == 300
        calendar.release(commitments[0].commitment_id)
        assert calendar.peak_commitment(0, 50) == 200

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 100),  # bandwidth
                st.integers(0, 300),  # start
                st.integers(1, 60),  # length
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_peak_matches_brute_force(self, rows):
        """The step function agrees with per-unit-time brute force."""
        calendar = CapacityCalendar(10**9)
        for bandwidth, start, length in rows:
            calendar.commit(bandwidth, start, start + length)
        horizon = max(start + length for _, start, length in rows) + 2
        brute = [0] * horizon
        for bandwidth, start, length in rows:
            for t in range(start, start + length):
                brute[t] += bandwidth
        for window_start in range(0, horizon - 1, 7):
            window_end = min(window_start + 13, horizon)
            expected = max(brute[window_start:window_end])
            assert calendar.peak_commitment(window_start, window_end) == expected
