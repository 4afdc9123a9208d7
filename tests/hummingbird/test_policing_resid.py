"""Traffic policing (Algorithm 1) and ResID interval colouring (§4.4)."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from tests.conftest import BLAKE2, T0, addresses, grant_full_path

from repro.hummingbird.policing import (
    BURST_TIME,
    KBPS_OF_CLASS,
    PerInterfacePolicer,
    PolicingVerdict,
    TokenBucketArray,
)
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource
from repro.hummingbird.resid import (
    CapacityExhausted,
    FirstFitColoring,
    Interval,
    ResIdAllocator,
    policing_array_bytes,
)
from repro.scion.router import Action
from repro.wire import bwcls

START = 990  # ResStart of the reservation a test's packets belong to

# Builds the §4.4 ResIDmax array (100 Gbps / 100 kbps: 3e6 ResIDs, 24 MB)
# in a fresh interpreter and prints the peak-RSS growth in bytes, before
# and after ten ResIDs far apart take a packet each.
_RESIDENCY_PROBE = """
import resource, sys
from repro.hummingbird.policing import TokenBucketArray
unit = 1 if sys.platform == "darwin" else 1024
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
before = peak()
array = TokenBucketArray(3_000_000)
built = peak()
for res_id in range(0, 3_000_000, 300_000):
    array.monitor(res_id, 1000, 500, 1000.0, 990)
print(array._timestamps.nbytes, built - before, peak() - before)
"""


class TestTokenBucket:
    def test_admits_traffic_within_rate(self):
        bucket = TokenBucketArray(capacity=8)
        now = 1000.0
        # 1 Mbps reservation, 500 B packets every 4 ms = 1 Mbps exactly.
        for i in range(100):
            verdict = bucket.monitor(0, 1000, 500, now + i * 0.004, START)
            assert verdict is PolicingVerdict.FWD_FLYOVER

    def test_demotes_sustained_overuse(self):
        bucket = TokenBucketArray(capacity=8)
        now = 1000.0
        verdicts = [bucket.monitor(0, 1000, 500, now, START) for _ in range(100)]
        assert PolicingVerdict.FWD_BEST_EFFORT in verdicts
        admitted = sum(1 for v in verdicts if v is PolicingVerdict.FWD_FLYOVER)
        # 50 ms burst at 1 Mbps = 6250 bytes = 12.5 packets of 500 B.
        assert 10 <= admitted <= 14

    def test_bucket_refills_over_time(self):
        bucket = TokenBucketArray(capacity=8)
        for _ in range(50):
            bucket.monitor(0, 1000, 500, 1000.0, START)
        assert bucket.monitor(0, 1000, 500, 1001.0, START) is PolicingVerdict.FWD_FLYOVER

    def test_out_of_range_res_id_is_best_effort(self):
        bucket = TokenBucketArray(capacity=4)
        assert bucket.monitor(99, 1000, 500, 0.0, START) is PolicingVerdict.FWD_BEST_EFFORT

    def test_memory_is_8_bytes_per_res_id(self):
        assert TokenBucketArray(capacity=100_000)._timestamps.nbytes == 800_000  # §7.1

    def test_paper_sized_array_is_not_resident_until_touched(self):
        """Untouched pages stay out of RSS, as ``np.zeros`` pages did; a
        ``bytearray`` or ``array("q")`` buffer would add the whole 24 MB."""
        source_root = pathlib.Path(repro.__file__).resolve().parents[1]
        # ru_maxrss survives exec: a probe spawned straight from this large
        # process would start at its peak.  A small interpreter in between
        # has a peak below the probe's own.
        relay = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]])"
        result = subprocess.run(
            [sys.executable, "-c", relay, _RESIDENCY_PROBE],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(source_root)},
        )
        memory_bytes, built, touched = map(int, result.stdout.split())
        assert memory_bytes == 8 * 3_000_000
        assert built < 2 << 20
        assert touched < 2 << 20  # ten ResIDs touch ten 4 KiB pages

    def test_usage_snapshot_is_ascending_and_skips_idle_res_ids(self):
        bucket = TokenBucketArray(capacity=64)
        for res_id in (40, 3, 17, 3):
            bucket.monitor(res_id, 1000, 100, 1000.0, START)
        bucket.monitor(9, 1000, 0, 1000.0, START)  # a zero-length packet moves no bytes
        snapshot = {(3, START): 200, (17, START): 100, (40, START): 100}
        assert bucket.usage_snapshot() == snapshot
        assert list(bucket.usage_snapshot()) == [(3, START), (17, START), (40, START)]
        assert bucket.usage_bytes(3, START) == 200
        assert bucket.usage_bytes(5, START) == 0
        assert bucket.usage_bytes(99, START) == 0  # out of range

    def test_set_limit_caps_the_rate(self):
        bucket = TokenBucketArray(capacity=8)
        bucket.set_limit(2, START, 0)
        assert bucket.monitor(2, 1000, 500, 1000.0, START) is PolicingVerdict.FWD_BEST_EFFORT
        bucket.set_limit(2, START, 100)
        admitted = [bucket.monitor(2, 1000, 500, 1000.0, START) for _ in range(12)]
        # the 100 kbps cap admits one 500 B packet of its 625 B burst, where
        # the header's 1 Mbps would have admitted all twelve (6,250 B)
        assert admitted.count(PolicingVerdict.FWD_FLYOVER) == 1
        assert bucket.usage_bytes(2, START) == 500

    @settings(max_examples=30)
    @given(
        bw_kbps=st.integers(min_value=100, max_value=1_000_000),
        pkt_len=st.integers(min_value=64, max_value=1500),
        gaps_ms=st.lists(st.integers(0, 20), min_size=20, max_size=60),
    )
    def test_admitted_bytes_never_exceed_rate_plus_burst(self, bw_kbps, pkt_len, gaps_ms):
        """The policing invariant: admitted <= BW * elapsed + BW * BurstTime."""
        bucket = TokenBucketArray(capacity=4)
        now = 1_000.0
        admitted_bytes = 0
        start = now
        for gap in gaps_ms:
            now += gap / 1000.0
            if bucket.monitor(1, bw_kbps, pkt_len, now, START) is PolicingVerdict.FWD_FLYOVER:
                admitted_bytes += pkt_len
        elapsed = now - start
        budget = bw_kbps * 1000 / 8 * (elapsed + BURST_TIME) + pkt_len
        assert admitted_bytes <= budget

    def test_max_packet_size_examples(self):
        # §4.4: below ~240 kbps the 50 ms burst admits less than 1500 B.
        def fresh_bucket_admits(bw_kbps, pkt_len):
            bucket = TokenBucketArray(capacity=1)
            return bucket.monitor(0, bw_kbps, pkt_len, 1000.0, START) is PolicingVerdict.FWD_FLYOVER

        assert fresh_bucket_admits(240, 1500) and not fresh_bucket_admits(240, 1501)
        assert not fresh_bucket_admits(100, 1500)
        assert fresh_bucket_admits(4000, 1501)


class TestReclaimedCap:
    """Bytes and a cap the reclamation loop installs bind to the reservation,
    (ResID, ResStart): FirstFit hands the ResID to the next non-overlapping
    window (§4.4), and that holder starts at zero and is policed at its own
    rate."""

    def _engine(self, policer):
        from repro.admission import AdmissionController
        from repro.reclaim import ReclamationEngine

        controller = AdmissionController(100_000)
        claim = controller.admit_reservation(1, True, 1000, 0.0, 60.0, tag="no-show")
        engine = ReclamationEngine(controller, policer, grace_seconds=1.0)
        engine.track(3, 1, 0, 1000, 0.0, 60.0, [(1, True, claim.commitment.commitment_id)])
        return engine

    def test_a_later_holder_of_the_res_id_is_policed_at_its_own_rate(self):
        policer = PerInterfacePolicer(capacity=8)
        (event,) = self._engine(policer).scan(5.0)  # never sent a byte
        assert event.new_kbps == 1
        array = policer.array_for(1)
        assert array.monitor(3, 1000, 500, 10.0, 0) is PolicingVerdict.FWD_BEST_EFFORT

        # The next holder's window is [60, 120): its 1 Mbps admits a full
        # 50 ms burst, twelve 500 B packets, where the cap would admit none.
        verdicts = [array.monitor(3, 1000, 500, 60.0, 60) for _ in range(12)]
        assert verdicts == [PolicingVerdict.FWD_FLYOVER] * 12

    def test_a_later_holder_of_the_res_id_starts_at_zero_bytes(self):
        policer = PerInterfacePolicer(capacity=8)
        array = policer.array_for(1)
        for _ in range(4):  # the holder of [0, 60)
            array.monitor(3, 1000, 500, 10.0, 0)
        assert policer.usage_bytes(1, 3, 0) == 2_000
        assert policer.usage_bytes(1, 3, 60) == 0  # the holder of [60, 120)
        array.monitor(3, 1000, 500, 60.0, 60)
        assert policer.usage_bytes(1, 3, 60) == 500
        assert policer.reservations() == {(1, 3, 0), (1, 3, 60)}
        array.monitor(3, 1000, 500, 61.0, 0)  # each keeps its own count
        assert policer.usage_bytes(1, 3, 0) == 2_500
        assert policer.usage_bytes(1, 3, 60) == 500
        assert policer.reservations() == {(1, 3, 0), (1, 3, 60)}

    def test_the_loop_forgets_an_ended_reservation_s_cap_and_bytes(self):
        policer = PerInterfacePolicer(capacity=8)
        engine = self._engine(policer)
        policer.array_for(1).monitor(3, 1000, 100, 2.0, 0)
        engine.scan(5.0)  # 100 B in 5 s: a no-show, capped
        assert policer.reservations() == {(1, 3, 0)}
        engine.scan(60.0)  # the window is over: no longer tracked
        assert engine.tracked() == [] and policer.reservations() == set()


class TestPerInterfacePolicer:
    def test_arrays_are_lazy_per_interface(self):
        policer = PerInterfacePolicer(capacity=16)
        policer.monitor(1, 0, bwcls.encode_ceil(1000), 500, 0.0, START)
        policer.monitor(2, 0, bwcls.encode_ceil(1000), 500, 0.0, START)
        assert sum(a._timestamps.nbytes for a in policer.arrays.values()) == 2 * 16 * 8

    def test_same_res_id_different_interfaces_independent(self):
        policer = PerInterfacePolicer(capacity=16)
        cls = bwcls.encode_ceil(1000)
        for _ in range(50):
            policer.monitor(1, 0, cls, 500, 0.0, START)
        # Interface 1's bucket for ResID 0 is exhausted; interface 2's is not.
        assert policer.monitor(2, 0, cls, 500, 0.0, START) is PolicingVerdict.FWD_FLYOVER

    def test_every_header_class_polices_at_its_decoded_rate(self):
        rates = []

        class Recording(TokenBucketArray):
            def monitor(self, res_id, bw_kbps, pkt_len, now, res_start):
                rates.append(bw_kbps)
                return super().monitor(res_id, bw_kbps, pkt_len, now, res_start)

        policer = PerInterfacePolicer(capacity=16)
        policer.arrays[1] = Recording(capacity=16)
        classes = range(bwcls.MAX_CLASS + 1)
        for cls in classes:
            policer.monitor(1, 0, cls, 500, 0.0, START)
        assert rates == [bwcls.decode(cls) for cls in classes] == list(KBPS_OF_CLASS)

    @pytest.mark.parametrize("cls", [-1, bwcls.MAX_CLASS + 1])
    def test_class_outside_ten_bits_is_refused(self, cls):
        policer = PerInterfacePolicer(capacity=16)
        with pytest.raises(ValueError, match="out of 10-bit range"):
            policer.monitor(1, 0, cls, 500, 0.0, START)

    def test_the_router_polices_with_its_ingress_array_at_the_class_rate(self, chain3, clock):
        """One level: the router calls the array the policer holds for the
        ingress — a replaced array is the one that polices."""
        calls = []

        class Recording(TokenBucketArray):
            def monitor(self, res_id, bw_kbps, pkt_len, now, res_start):
                calls.append((res_id, bw_kbps, res_start))
                return super().monitor(res_id, bw_kbps, pkt_len, now, res_start)

        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=2_000)
        source = HummingbirdSource(*addresses(path), path, reservations, clock, BLAKE2)
        router = HummingbirdRouter(topology.as_of(path.src), clock, BLAKE2)
        router.policer.arrays[0] = Recording(capacity=16)
        decision = router.process(source.build_packet(bytes(100)), 0)
        assert decision.action is Action.FORWARD_PRIORITY
        bw_cls = reservations[0].resinfo.bw_cls
        assert calls == [(0, KBPS_OF_CLASS[bw_cls], T0 - 5)]

    @pytest.mark.parametrize("cls", [-1, bwcls.MAX_CLASS + 1])
    def test_a_class_outside_ten_bits_is_refused_before_policing(self, chain3, clock, cls):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        source = HummingbirdSource(*addresses(path), path, reservations, clock, BLAKE2)
        router = HummingbirdRouter(topology.as_of(path.src), clock, BLAKE2)
        packet = source.build_packet(bytes(100))
        packet.path.segments[0].hopfields[0].bw_cls = cls  # a flyover: the packet's own
        with pytest.raises(ValueError, match="10-bit"):
            router.process(packet, 0)
        assert not router.policer.arrays


class TestFirstFit:
    def test_non_overlapping_reuse_color(self):
        coloring = FirstFitColoring()
        assert coloring.assign(Interval(0, 10)) == 0
        assert coloring.assign(Interval(10, 20)) == 0
        assert coloring.assign(Interval(5, 15)) == 1

    def test_release_frees_color(self):
        coloring = FirstFitColoring()
        color = coloring.assign(Interval(0, 10))
        coloring.release(color, Interval(0, 10))
        assert coloring.assign(Interval(5, 8)) == color

    def test_release_unknown_interval(self):
        coloring = FirstFitColoring()
        coloring.assign(Interval(0, 10))
        with pytest.raises(KeyError):
            coloring.release(0, Interval(1, 2))

    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 100)),
            min_size=1,
            max_size=60,
        )
    )
    def test_coloring_is_always_valid(self, raw_intervals):
        """No two overlapping intervals ever share a colour (= ResID)."""
        coloring = FirstFitColoring()
        assigned: list[tuple[Interval, int]] = []
        for start, length in raw_intervals:
            interval = Interval(start, start + length)
            color = coloring.assign(interval)
            for other, other_color in assigned:
                if interval.start < other.end and other.start < interval.end:
                    assert color != other_color
            assigned.append((interval, color))

    @settings(max_examples=20)
    @given(
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(1, 50)),
            min_size=5,
            max_size=50,
        )
    )
    def test_first_fit_competitiveness_bound(self, raw_intervals):
        """Colours used stay within the known First-Fit bound (~8x optimal)."""
        coloring = FirstFitColoring()
        intervals = [Interval(s, s + l) for s, l in raw_intervals]
        for interval in intervals:
            coloring.assign(interval)
        # Optimal = max clique = max overlap depth.
        events = sorted(
            [(i.start, 1) for i in intervals] + [(i.end, -1) for i in intervals]
        )
        depth = max_depth = 0
        for _, delta in events:
            depth += delta
            max_depth = max(max_depth, depth)
        assert coloring.colors_in_use <= 8 * max_depth


class TestResIdAllocator:
    def test_capacity_enforced(self):
        allocator = ResIdAllocator(capacity=2)
        allocator.allocate(0, 10)
        allocator.allocate(0, 10)
        with pytest.raises(CapacityExhausted):
            allocator.allocate(0, 10)

    def test_release_enables_reuse(self):
        allocator = ResIdAllocator(capacity=1)
        res_id = allocator.allocate(0, 10)
        allocator.release(res_id, 0, 10)
        assert allocator.allocate(2, 12) == res_id

    def test_paper_sizing_examples(self):
        # §4.4 example 1: 100 Gbps / 100 kbps -> 3e6 ResIDs, 24 MB array.
        assert policing_array_bytes(100_000_000, 100) == 24_000_000
        # Example 2: 100 Gbps / 4 Mbps -> 75 000 ResIDs, 600 kB array.
        assert policing_array_bytes(100_000_000, 4_000) == 600_000


class TestResIdExhaustionAndReuse:
    """Capacity-exhaustion behaviour the admission subsystem now leans on."""

    def test_failed_allocation_leaves_allocator_usable(self):
        allocator = ResIdAllocator(capacity=2)
        allocator.allocate(0, 10)
        allocator.allocate(0, 10)
        with pytest.raises(CapacityExhausted):
            allocator.allocate(5, 15)
        # The rejected interval was refused before it was recorded: no
        # phantom colour track.
        assert allocator._coloring.colors_in_use == 2
        # A non-overlapping window still allocates, within capacity.
        assert allocator.allocate(10, 20) in (0, 1)

    def test_release_after_exhaustion_reopens_capacity(self):
        allocator = ResIdAllocator(capacity=2)
        first = allocator.allocate(0, 10)
        allocator.allocate(0, 10)
        with pytest.raises(CapacityExhausted):
            allocator.allocate(0, 10)
        allocator.release(first, 0, 10)
        assert allocator.allocate(0, 10) == first

    def test_released_id_reused_lowest_first(self):
        allocator = ResIdAllocator(capacity=8)
        ids = [allocator.allocate(0, 10) for _ in range(4)]
        assert ids == [0, 1, 2, 3]
        allocator.release(1, 0, 10)
        allocator.release(2, 0, 10)
        # First-Fit hands back the lowest free colour first.
        assert allocator.allocate(0, 10) == 1
        assert allocator.allocate(0, 10) == 2

    def test_release_requires_exact_interval(self):
        allocator = ResIdAllocator(capacity=2)
        res_id = allocator.allocate(0, 10)
        with pytest.raises(KeyError):
            allocator.release(res_id, 0, 11)
        # The reservation is still held: a full-capacity burst exhausts.
        allocator.allocate(0, 10)
        with pytest.raises(CapacityExhausted):
            allocator.allocate(0, 10)

    def test_sequential_windows_never_exhaust_capacity_one(self):
        allocator = ResIdAllocator(capacity=1)
        for window in range(50):
            res_id = allocator.allocate(window * 10, window * 10 + 10)
            assert res_id == 0
            allocator.release(res_id, window * 10, window * 10 + 10)
