"""Property: the sharded calendar IS the monolithic calendar.

Hypothesis drives arbitrary interleavings of commit / commit_batch
(tracked and untracked) / release / split_time / split_bandwidth / fuse /
transfer / expire against a :class:`ShardedCalendar` (shard width chosen
so windows routinely span shard boundaries) and a monolithic
:class:`CapacityCalendar`, and checks after every step that
``peak_commitment`` / ``bulk_peak`` / ``tag_peak`` / ``headroom`` answer
identically — mirroring ``tests/marketdata/test_indexer_property.py``.

One deliberate divergence is excluded by construction: ``expire(now)``
drops whole shards behind ``now``, forgetting the *history* of
commitments that are still active, so probes only ask about windows at or
after the largest ``now`` ever expired (the watermark).  Admission never
queries behind the present, so that is the surface that must agree.
"""

import random

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.admission import CapacityCalendar, ShardedCalendar

SHARD = 100.0
HORIZON = 1000  # 10 shards' worth of commitment starts
MAX_DURATION = 350  # spans up to 4 shard boundaries
PROBE_SPAN = HORIZON + 4 * MAX_DURATION
CAPACITY = 1_000_000  # commit() is unconditional; capacity only scales headroom
TAGS = ("alice", "bob", "")


class ShardedDifferentialMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.mono = CapacityCalendar(CAPACITY)
        self.shard = ShardedCalendar(CAPACITY, shard_seconds=SHARD)
        self.handles: list[tuple[int, int]] = []  # (mono id, sharded id)
        self.watermark = 0.0
        self.rng = random.Random(4321)

    # -- helpers ---------------------------------------------------------------

    def _pick(self, index: int) -> tuple[int, int] | None:
        if not self.handles:
            return None
        return self.handles[index % len(self.handles)]

    def _forget(self, handle: tuple[int, int]) -> None:
        self.handles.remove(handle)

    # -- rules -----------------------------------------------------------------

    @rule(
        start=st.integers(0, HORIZON),
        duration=st.integers(1, MAX_DURATION),
        bandwidth=st.integers(1, 1000),
        tag=st.sampled_from(TAGS),
    )
    def commit(self, start, duration, bandwidth, tag):
        mono = self.mono.commit(bandwidth, start, start + duration, tag)
        shard = self.shard.commit(bandwidth, start, start + duration, tag)
        self.handles.append((mono.commitment_id, shard.commitment_id))

    @rule(
        seed=st.integers(0, 2**16),
        count=st.integers(1, 8),
        tag=st.sampled_from(TAGS),
        track=st.booleans(),
    )
    def commit_batch(self, seed, count, tag, track):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, HORIZON, count).astype(np.float64)
        ends = starts + rng.integers(1, MAX_DURATION, count)
        bandwidths = rng.integers(1, 1000, count)
        mono = self.mono.commit_batch(bandwidths, starts, ends, tag=tag, track=track)
        shard = self.shard.commit_batch(bandwidths, starts, ends, tag=tag, track=track)
        if track:
            self.handles.extend(
                (m.commitment_id, s.commitment_id) for m, s in zip(mono, shard)
            )

    @rule(index=st.integers(0, 1_000_000))
    def release(self, index):
        handle = self._pick(index)
        if handle is None:
            return
        self._forget(handle)
        mono_id, shard_id = handle
        released_mono = self.mono.release(mono_id)
        released_shard = self.shard.release(shard_id)
        assert (released_mono.start, released_mono.end, released_mono.tag) == (
            released_shard.start, released_shard.end, released_shard.tag,
        )

    @rule(index=st.integers(0, 1_000_000), fraction=st.floats(0.1, 0.9))
    def split_time(self, index, fraction):
        handle = self._pick(index)
        if handle is None:
            return
        mono_id, shard_id = handle
        commitment = self.mono.get(mono_id)
        at = float(int(commitment.start + fraction * commitment.duration))
        if not commitment.start < at < commitment.end:
            return
        self._forget(handle)
        mono_first, mono_second = self.mono.split_time(mono_id, at)
        shard_first, shard_second = self.shard.split_time(shard_id, at)
        self.handles.append((mono_first.commitment_id, shard_first.commitment_id))
        self.handles.append((mono_second.commitment_id, shard_second.commitment_id))

    @rule(index=st.integers(0, 1_000_000), fraction=st.floats(0.1, 0.9))
    def split_bandwidth(self, index, fraction):
        handle = self._pick(index)
        if handle is None:
            return
        mono_id, shard_id = handle
        commitment = self.mono.get(mono_id)
        carved = int(fraction * commitment.bandwidth_kbps)
        if not 0 < carved < commitment.bandwidth_kbps:
            return
        self._forget(handle)
        mono_first, mono_second = self.mono.split_bandwidth(mono_id, carved)
        shard_first, shard_second = self.shard.split_bandwidth(shard_id, carved)
        self.handles.append((mono_first.commitment_id, shard_first.commitment_id))
        self.handles.append((mono_second.commitment_id, shard_second.commitment_id))

    @rule(first=st.integers(0, 1_000_000), second=st.integers(0, 1_000_000))
    def fuse(self, first, second):
        handle_a = self._pick(first)
        handle_b = self._pick(second)
        if handle_a is None or handle_b is None or handle_a == handle_b:
            return
        a = self.mono.get(handle_a[0])
        b = self.mono.get(handle_b[0])
        same_window = (a.start, a.end) == (b.start, b.end)
        adjacent = a.bandwidth_kbps == b.bandwidth_kbps and (
            a.end == b.start or b.end == a.start
        )
        if not (same_window or adjacent):
            return
        self._forget(handle_a)
        self._forget(handle_b)
        mono = self.mono.fuse(handle_a[0], handle_b[0])
        shard = self.shard.fuse(handle_a[1], handle_b[1])
        assert (mono.start, mono.end, mono.bandwidth_kbps, mono.tag) == (
            shard.start, shard.end, shard.bandwidth_kbps, shard.tag,
        )
        self.handles.append((mono.commitment_id, shard.commitment_id))

    @rule(index=st.integers(0, 1_000_000), tag=st.sampled_from(TAGS))
    def transfer(self, index, tag):
        handle = self._pick(index)
        if handle is None:
            return
        self.mono.transfer(handle[0], tag)
        self.shard.transfer(handle[1], tag)

    @rule(now=st.integers(0, PROBE_SPAN))
    def expire(self, now):
        released_mono = self.mono.expire(float(now))
        released_shard = self.shard.expire(float(now))
        assert released_mono == released_shard, (now, released_mono, released_shard)
        self.watermark = max(self.watermark, float(now))
        self.handles = [
            handle for handle in self.handles if handle[0] in self.mono._commitments
        ]
        assert self.mono.commitment_count == self.shard.commitment_count

    # -- the property ------------------------------------------------------------

    @invariant()
    def answers_match_at_or_after_the_watermark(self):
        if not hasattr(self, "mono"):
            return
        lo = int(self.watermark)
        for _ in range(4):
            start = self.rng.randint(lo, lo + PROBE_SPAN)
            end = start + self.rng.randint(1, 2 * MAX_DURATION)
            assert self.mono.peak_commitment(start, end) == self.shard.peak_commitment(
                start, end
            ), (start, end)
            assert self.mono.headroom(start, end) == self.shard.headroom(start, end)
            tag = self.rng.choice(TAGS)
            assert self.mono.tag_peak(tag, start, end) == self.shard.tag_peak(
                tag, start, end
            ), (tag, start, end)
        probe_rng = np.random.default_rng(self.rng.randrange(2**16))
        starts = probe_rng.integers(lo, lo + PROBE_SPAN, 24).astype(np.float64)
        ends = starts + probe_rng.integers(1, 2 * MAX_DURATION, 24)
        assert np.array_equal(
            self.mono.bulk_peak(starts, ends), self.shard.bulk_peak(starts, ends)
        )


ShardedDifferentialMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestShardedMatchesMonolithic = ShardedDifferentialMachine.TestCase
