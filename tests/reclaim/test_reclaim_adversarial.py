"""Adversarial no-show scenarios: aliasing and the late-waking sender.

The engine reads *cumulative* priority byte counters off the policer, so
when a buyer's packets land is invisible to the no-show judgment — only
how many bytes the data plane actually carried.  A sender bursting exactly
at the scan instants gets the same verdict as one spread evenly;
and a genuine no-show that wakes up after reclamation finds its bucket
draining at the reclaimed rate, demoted to best effort by the policer.
"""

from tests.conftest import reclaiming_at

from repro.admission import ACTIVE, AdmissionController
from repro.hummingbird.policing import PerInterfacePolicer, PolicingVerdict
from repro.reclaim import ReclamationEngine

INGRESS = 1
RES_START = 0  # the reservation's ResStart: its window is [0, 100)
BOOKED = 200  # kbps; 250 B / 10 ms is exactly this rate
PACKET = 250


class _Uncapped(PerInterfacePolicer):
    """A policer whose caps do not take: a calendar-only deployment, where
    nothing on the data plane holds a reclaimed sender to its retained rate."""

    __slots__ = ()

    def set_limit(self, ingress_ifid, res_id, res_start, bw_kbps) -> None:
        pass


def _engine(policer):
    controller = AdmissionController(100_000)
    decision = controller.admit_reservation(
        INGRESS, True, BOOKED, 0.0, 100.0, tag="adv"
    )
    engine = ReclamationEngine(controller, policer, grace_seconds=0.2)
    return controller, engine, decision.commitment.commitment_id


def test_burst_exactly_at_sampling_instants_is_not_reclaimed():
    """Cumulative counters make burst-phase aliasing structurally impossible.

    The sender transmits *only* at the scan instants — the worst phase
    for an instantaneous-rate sampler — in bucket-conformant bursts that
    add up to its full booked rate.  Every scan sees the true volume.
    """
    policer = PerInterfacePolicer(capacity=64)
    controller, engine, commitment_id = _engine(policer)
    engine.track(7, INGRESS, RES_START, BOOKED, 0.0, 100.0, [(INGRESS, True, commitment_id)])

    for step in range(1, 41):
        now = step * 0.05
        # One 50 ms burst (5 packets x 10 ms drain) exactly at the instant
        # the engine scans: the full booked rate, maximally aliased.
        for _ in range(5):
            verdict = policer.array_for(INGRESS).monitor(7, BOOKED, PACKET, now, RES_START)
            assert verdict is PolicingVerdict.FWD_FLYOVER
        engine.scan(now)

    tracked = engine._tracked[INGRESS, 7, RES_START]
    assert tracked.reclaimed_at is None
    assert engine.events == []
    calendar = controller.calendar(INGRESS, True, ACTIVE)
    assert calendar.headroom(0.0, 100.0) == 100_000 - BOOKED


def test_phase_offset_does_not_change_the_verdict():
    """Two identical-volume senders, one aligned with the scans, one offset."""
    outcomes = []
    for offset in (0.0, 0.025):
        policer = PerInterfacePolicer(capacity=64)
        _, engine, commitment_id = _engine(policer)
        engine.track(
            7, INGRESS, RES_START, BOOKED, 0.0, 100.0, [(INGRESS, True, commitment_id)]
        )
        for step in range(1, 41):
            now = step * 0.05
            for _ in range(5):
                policer.array_for(INGRESS).monitor(
                    7, BOOKED, PACKET, now + offset, RES_START
                )
            engine.scan(now)
        outcomes.append(
            (engine._tracked[INGRESS, 7, RES_START].reclaimed_at is None, len(engine.events))
        )
    assert outcomes[0] == outcomes[1] == (True, 0)


def test_late_waking_no_show_is_demoted_by_the_policer():
    """After reclamation the bucket drains at the retained rate only."""
    policer = PerInterfacePolicer(capacity=64)
    controller, engine, commitment_id = _engine(policer)
    engine.track(7, INGRESS, RES_START, BOOKED, 0.0, 100.0, [(INGRESS, True, commitment_id)])

    # Sanity: before reclamation the same packet rides with priority.
    probe = PerInterfacePolicer(capacity=64)
    assert (
        probe.array_for(INGRESS).monitor(7, BOOKED, PACKET, 1.0, RES_START)
        is PolicingVerdict.FWD_FLYOVER
    )

    events = engine.scan(1.0)  # never sent a byte: a genuine no-show
    assert len(events) == 1
    assert events[0].new_kbps == 1
    calendar = controller.calendar(INGRESS, True, ACTIVE)
    assert calendar.headroom(0.0, 100.0) == 100_000 - 1

    # The sender wakes up with its original header class; the installed
    # limit drains the bucket at 1 kbps, so a normal packet is demoted.
    verdict = policer.array_for(INGRESS).monitor(7, BOOKED, PACKET, 2.0, RES_START)
    assert verdict is PolicingVerdict.FWD_BEST_EFFORT

    # The retained trickle still fits: 6 B at 1 kbps is under BurstTime.
    assert (
        policer.array_for(INGRESS).monitor(7, BOOKED, 6, 2.0, RES_START)
        is PolicingVerdict.FWD_FLYOVER
    )

    # Best-effort traffic is not attributed to the reservation, so the
    # wake-up above did not count toward usage; the trickle did.
    assert policer.usage_bytes(INGRESS, 7, RES_START) == 6


def test_false_reclaim_is_flagged_when_not_demoted():
    """Where the cap does not take, a woken sender is flagged exactly once.

    A policer that caps holds priority traffic to the retained rate, so
    observed usage can never exceed it — the detector exists for
    calendar-only deployments where it can.
    """
    policer = _Uncapped(capacity=64)
    _, engine, commitment_id = _engine(policer)
    engine.track(7, INGRESS, RES_START, BOOKED, 0.0, 100.0, [(INGRESS, True, commitment_id)])
    with reclaiming_at(MIN_RETAINED_KBPS=10):
        assert len(engine.scan(1.0)) == 1  # reclaimed to 10 kbps

    # The sender wakes at its full booked rate; nothing caps the bucket.
    for step in range(95):
        verdict = policer.array_for(INGRESS).monitor(
            7, BOOKED, PACKET, 1.05 + step * 0.01, RES_START
        )
        assert verdict is PolicingVerdict.FWD_FLYOVER
    engine.scan(2.0)
    assert engine.false_reclaims == 1
    assert engine._tracked[INGRESS, 7, RES_START].false_reclaim
    # Flagged once, not once per scan.
    engine.scan(2.5)
    assert engine.false_reclaims == 1


def test_a_reservation_past_its_end_is_no_longer_watched():
    """Expiry, not a verdict: the scan at the window's end drops it unjudged."""
    policer = PerInterfacePolicer(capacity=64)
    _, engine, commitment_id = _engine(policer)
    engine.track(7, INGRESS, RES_START, BOOKED, 0.0, 1.0, [(INGRESS, True, commitment_id)])
    assert engine.scan(1.0) == [] and engine.tracked_count == 0
