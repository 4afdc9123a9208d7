"""Capacity calendar: step-function accounting, one window rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import AdmissionController, AdmissionRejected, CapacityCalendar


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


INF, NAN = float("inf"), float("nan")
GEOMETRIES = [pytest.param(None, id="unbounded"), pytest.param(100.0, id="sharded")]
REFUSED_WINDOWS = [(5, 0.0, INF), (5, -INF, 10.0), (5, NAN, 10.0), (5, 10, 10), (5, 20, 10), (0, 0, 10)]
REFUSED = [(method, args) for method in ("commit", "try_commit") for args in REFUSED_WINDOWS]
# the last refused row is refused for its bandwidth, not its window
QUERY_WINDOWS = [(start, end) for bandwidth, start, end in REFUSED_WINDOWS if bandwidth]


@pytest.mark.parametrize("shard_seconds", GEOMETRIES)
class TestOneValidation:
    """commit, try_commit and the queries refuse the same windows, at either
    geometry, before touching anything."""

    @staticmethod
    def _busy(shard_seconds):
        calendar = CapacityCalendar(1000, shard_seconds)
        calendar.commit(300, 50, 250, "a")
        calendar.commit(100, 120.0, 130.0)
        calendar.expire(110)
        return calendar

    @pytest.mark.parametrize("method, args", REFUSED)
    def test_a_refused_call_leaves_the_fingerprint_alone(self, shard_seconds, method, args):
        calendar = self._busy(shard_seconds)
        before = calendar.fingerprint()
        with pytest.raises(ValueError):
            getattr(calendar, method)(*args)
        assert calendar.fingerprint() == before

    @pytest.mark.parametrize("query", ["peak_commitment", "tag_peak", "headroom"])
    @pytest.mark.parametrize("start, end", QUERY_WINDOWS)
    def test_a_query_refuses_every_window_a_commit_refuses(
        self, shard_seconds, query, start, end
    ):
        calendar = self._busy(shard_seconds)
        before = calendar.fingerprint()
        args = ("a", start, end) if query == "tag_peak" else (start, end)
        with pytest.raises(ValueError):
            getattr(calendar, query)(*args)
        assert calendar.fingerprint() == before

    def test_the_controller_refuses_them_before_any_calendar_exists(self, shard_seconds):
        controller = AdmissionController(1000, shard_seconds=shard_seconds)
        for start, end in QUERY_WINDOWS:
            with pytest.raises(ValueError):
                controller.utilization(1, True, start, end)
        assert controller.utilization(1, True, 0, 10) == 0.0

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
        third = calendar.commit(5, 10, 120)
        fourth = calendar.commit(7, 20, 30.5)
        shrunk = calendar.reclaim(first.commitment_id, 100)
        released = calendar.release(second.commitment_id)
        histories.append(
            [first, second, third, fourth, shrunk, released, *calendar.commitments()]
        )
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
