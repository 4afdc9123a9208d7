"""Property: at either shard geometry the calendar IS the brute-force reference.

Hypothesis drives arbitrary interleavings of try_commit / commit / release
/ reclaim / expire against a calendar with one unbounded shard, one with a
width (chosen so windows routinely span shard boundaries) and
:class:`tests.admission.reference.ReferenceCalendar` — a list of rows
answering by sweep, sharing no code with ``src/`` — and checks after every
step that ``peak_commitment`` / ``tag_peak`` / ``headroom`` and the
commitment records agree, mirroring
``tests/marketdata/test_indexer_property.py``.  Three rules aim at where the
sharded geometry is thinnest: release / reclaim of a commitment whose early
shards were dropped, a commit straddling the watermark, and ``expire(now)``
with ``now`` exactly on a shard edge.

One deliberate divergence is excluded by construction: ``expire(now)``
drops whole shards behind ``now``, forgetting the *history* of
commitments that are still active, so probes (and ``try_commit``, whose
answer is a probe) only ask about windows at or after the largest ``now``
ever expired (the watermark).  Admission never queries behind the present,
so that is the surface that must agree.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.admission import CapacityCalendar
from tests.admission.reference import ReferenceCalendar

SHARD = 100.0
HORIZON = 1000  # 10 shards' worth of commitment starts
MAX_DURATION = 350  # spans up to 4 shard boundaries
PROBE_SPAN = HORIZON + 4 * MAX_DURATION
CAPACITY = 3000  # commit() is unconditional, so try_commit meets full windows
TAGS = ("alice", "bob", "")

windows = dict(duration=st.integers(1, MAX_DURATION), bandwidth=st.integers(1, 1000))
picks = st.integers(0, 1_000_000)


def _row(commitment) -> tuple:
    return (
        commitment.commitment_id, commitment.bandwidth_kbps,
        commitment.start, commitment.end, commitment.tag,
    )


class CalendarReferenceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.calendars = [
            CapacityCalendar(CAPACITY, shard_seconds=None),
            CapacityCalendar(CAPACITY, shard_seconds=SHARD),
        ]
        self.reference = ReferenceCalendar(CAPACITY)
        self.watermark = 0
        self.rng = random.Random(4321)

    # -- helpers ---------------------------------------------------------------

    def _each(self, call):
        """One call on every calendar; the answers have to be one answer."""
        first, *rest = [call(calendar) for calendar in self.calendars]
        assert all(answer == first for answer in rest), (first, rest)
        return first

    def _live(self, pick: int) -> int | None:
        ids = sorted(self.reference.rows)
        return ids[pick % len(ids)] if ids else None

    def _commit(self, method: str, bandwidth, start, end, tag) -> None:
        expected = getattr(self.reference, method)(bandwidth, start, end, tag)
        granted = self._each(
            lambda calendar: getattr(calendar, method)(bandwidth, start, end, tag)
        )
        if expected is None:
            assert granted is None
        else:
            assert _row(granted) == (expected, bandwidth, start, end, tag)

    def _expire(self, now) -> None:
        released = self._each(lambda calendar: calendar.expire(now))
        assert released == self.reference.expire(now), now
        self.watermark = max(self.watermark, now)

    def _shrink_or_release(self, row_id: int, fraction: float, shrink: bool) -> None:
        bandwidth, start, end, tag = self.reference.rows[row_id]
        target = int(fraction * bandwidth)
        if shrink and 0 < target < bandwidth:
            self.reference.reclaim(row_id, target)
            resized = self._each(lambda calendar: calendar.reclaim(row_id, target))
            assert _row(resized) == (row_id, target, start, end, tag)
        else:
            self.reference.release(row_id)
            released = self._each(lambda calendar: calendar.release(row_id))
            assert _row(released) == (row_id, bandwidth, start, end, tag)

    # -- rules -----------------------------------------------------------------

    @rule(offset=st.integers(0, HORIZON), tag=st.sampled_from(TAGS), **windows)
    def try_commit(self, offset, duration, bandwidth, tag):
        start = self.watermark + offset
        self._commit("try_commit", bandwidth, start, start + duration, tag)

    @rule(offset=st.integers(0, HORIZON), duration=windows["duration"], over=st.booleans())
    def try_commit_to_the_brim(self, offset, duration, over):
        start = self.watermark + offset
        brim = CAPACITY - self.reference.peak_commitment(start, start + duration)
        if brim + over > 0:  # exactly what is left fits, one kbps more does not
            self._commit("try_commit", brim + over, start, start + duration, "")

    @rule(start=st.integers(0, HORIZON), tag=st.sampled_from(TAGS), **windows)
    def commit(self, start, duration, bandwidth, tag):
        self._commit("commit", bandwidth, start, start + duration, tag)

    @rule(back=st.integers(1, MAX_DURATION), tag=st.sampled_from(TAGS), **windows)
    def commit_straddling_the_watermark(self, back, duration, bandwidth, tag):
        start = self.watermark - back
        self._commit("commit", bandwidth, start, self.watermark + duration, tag)

    @rule(pick=picks, fraction=st.floats(0.1, 0.9), shrink=st.booleans())
    def reclaim_or_release(self, pick, fraction, shrink):
        row_id = self._live(pick)
        if row_id is not None:
            self._shrink_or_release(row_id, fraction, shrink)

    @rule(now=st.integers(0, PROBE_SPAN))
    def expire(self, now):
        self._expire(now)

    @rule(edge=st.integers(0, PROBE_SPAN // int(SHARD)))
    def expire_on_a_shard_edge(self, edge):
        self._expire(edge * SHARD)

    @rule(
        pick=picks,
        elapsed=st.floats(0.3, 0.95),
        fraction=st.floats(0.1, 0.9),
        shrink=st.booleans(),
    )
    def drop_early_shards_then_reclaim_or_release(self, pick, elapsed, fraction, shrink):
        row_id = self._live(pick)
        if row_id is None:
            return
        _, start, end, _ = self.reference.rows[row_id]
        self._expire(int(start + elapsed * (end - start)))  # < end: still live
        if row_id in self.reference.rows:
            self._shrink_or_release(row_id, fraction, shrink)

    # -- the property ------------------------------------------------------------

    @invariant()
    def answers_match_at_or_after_the_watermark(self):
        if not hasattr(self, "calendars"):
            return
        reference = self.reference
        rows = sorted((row_id, *row) for row_id, row in reference.rows.items())
        assert self._each(lambda c: sorted(map(_row, c.commitments()))) == rows
        assert self._each(lambda c: c.commitment_count) == len(rows)
        lo = int(self.watermark)
        for _ in range(4):
            start = self.rng.randint(lo, lo + PROBE_SPAN)
            end = start + self.rng.randint(1, 2 * MAX_DURATION)
            peak = reference.peak_commitment(start, end)
            assert self._each(lambda c: c.peak_commitment(start, end)) == peak
            assert self._each(lambda c: c.headroom(start, end)) == CAPACITY - peak
            tag = self.rng.choice(TAGS)
            assert self._each(
                lambda c: c.tag_peak(tag, start, end)
            ) == reference.tag_peak(tag, start, end), (tag, start, end)


CalendarReferenceMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestShardedMatchesMonolithic = CalendarReferenceMachine.TestCase
