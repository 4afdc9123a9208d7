"""Property suite: reclamation is safe at any shard width.

Two invariants, driven by hypothesis:

(a) the reclamation engine never shrinks a commitment below the observed
    rate — ``RETAIN_HEADROOM >= 1`` and the min-retained floor guarantee
    the interface keeps headroom for traffic the data plane has seen;
(b) one interleaving of commit/reclaim/release produces identical
    verdicts and identical headroom profiles on day-wide and on
    100-second shards.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import reclaiming_at

from repro.admission import ACTIVE, AdmissionController, CapacityCalendar
from repro.reclaim import ReclamationEngine

SHARD = 100.0
CAPACITY = 1_000_000
HORIZON = 1_000.0

# -- (a) reclaim never dips below observed usage --------------------------------


class _Counts:
    """A policer as the loop reads and caps it, over fixed cumulative bytes
    per ``(ingress, ResID, ResStart)``."""

    def __init__(self, used: dict) -> None:
        self.used = used

    def usage_bytes(self, ingress_ifid, res_id, res_start) -> int:
        return self.used.get((ingress_ifid, res_id, res_start), 0)

    def set_limit(self, ingress_ifid, res_id, res_start, bw_kbps) -> None:
        pass

    def retain(self, reservations) -> None:
        pass


@settings(max_examples=60, deadline=None)
@given(
    booked=st.integers(1, 5_000),
    observed_bytes=st.integers(0, 2_000_000),
    threshold=st.floats(0.05, 1.0),
    headroom_factor=st.floats(1.0, 3.0),
    min_retained=st.integers(1, 50),
)
def test_reclaim_never_lowers_headroom_below_observed(
    booked, observed_bytes, threshold, headroom_factor, min_retained
):
    controller = AdmissionController(100_000)
    decision = controller.admit_reservation(1, True, booked, 0.0, 100.0, tag="p")
    assert decision.admitted
    engine = ReclamationEngine(
        controller, _Counts({(1, 7, 0): observed_bytes}), grace_seconds=0.0
    )
    engine.track(
        7, 1, 0, booked, 0.0, 100.0, [(1, True, decision.commitment.commitment_id)]
    )
    now = 10.0
    with reclaiming_at(
        NO_SHOW_THRESHOLD=threshold,
        RETAIN_HEADROOM=headroom_factor,
        MIN_RETAINED_KBPS=min_retained,
    ):
        events = engine.scan(now)
    observed_kbps = observed_bytes * 8.0 / 1000.0 / now
    tracked = engine._tracked[1, 7, 0]
    calendar = controller.calendar(1, True, ACTIVE)

    no_show = observed_kbps < threshold * booked
    target = max(min_retained, math.ceil(observed_kbps * headroom_factor))
    if no_show and target < booked:
        assert len(events) == 1
        assert tracked.reclaimed_to_kbps == target
        # The retained rate covers everything the data plane observed.
        assert tracked.reclaimed_to_kbps >= observed_kbps
        assert calendar.headroom(0.0, 100.0) == 100_000 - target
    else:
        assert events == []
        assert tracked.reclaimed_at is None
        assert calendar.headroom(0.0, 100.0) == 100_000 - booked


# -- (b) calendar equivalence under random interleavings ------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("commit"),
            st.integers(1, 400),  # bandwidth
            st.integers(0, 18),  # start slot (x50s)
            st.integers(1, 6),  # duration slots
        ),
        st.tuples(
            st.just("reclaim"),
            st.integers(0, 30),  # which live commitment
            st.integers(0, 130),  # target, percent of current bandwidth
        ),
        st.tuples(st.just("release"), st.integers(0, 30), st.just(0)),
    ),
    min_size=1,
    max_size=24,
)


def _run(calendar, ops):
    """Apply one op sequence; return a verdict per op plus headroom probes."""
    verdicts = []
    live = []
    for op in ops:
        if op[0] == "commit":
            _, bandwidth, slot, length = op
            piece = calendar.commit(
                bandwidth, slot * 50.0, min(HORIZON, (slot + length) * 50.0), "p"
            )
            live.append((piece.commitment_id, bandwidth))
            verdicts.append(("committed", piece.bandwidth_kbps))
        elif not live:
            verdicts.append(("noop", None))
        elif op[0] == "reclaim":
            _, index, percent = op
            slot = index % len(live)
            commitment_id, bandwidth = live[slot]
            target = bandwidth * percent // 100
            try:
                shrunk = calendar.reclaim(commitment_id, target)
            except ValueError:
                verdicts.append(("rejected", None))
            else:
                live[slot] = (commitment_id, shrunk.bandwidth_kbps)
                verdicts.append(("reclaimed", shrunk.bandwidth_kbps))
        else:
            _, index, _ = op
            released = calendar.release(live.pop(index % len(live))[0])
            verdicts.append(("released", released.bandwidth_kbps))
    probes = tuple(
        calendar.headroom(t, t + 50.0) for t in range(0, int(HORIZON), 50)
    )
    return verdicts, probes


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_day_wide_and_narrow_shards_give_identical_verdicts(ops):
    day = _run(CapacityCalendar(CAPACITY), ops)
    narrow = _run(CapacityCalendar(CAPACITY, shard_seconds=SHARD), ops)
    assert day == narrow
