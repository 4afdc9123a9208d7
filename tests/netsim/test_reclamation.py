"""The closed loop beats the open one: reclamation experiment acceptance.

Three arms on the same topology, traffic, and seed — no overbooking,
static overbooking, and adaptive overbooking with reclamation.  The
closed loop must win on both revenue and reserved-traffic goodput while
never demoting an honest buyer's packets.
"""

import pytest

from repro.netsim import admitted, reclamation_experiment


@pytest.fixture(scope="module")
def result(experiment_runs):
    # the run test_experiment_equivalence.py records as reclamation@3
    return experiment_runs(reclamation_experiment, 3, duration=3.0)


def test_all_three_arms_ran(result):
    assert set(result.arms) == {"none", "static", "adaptive"}
    for arm in result.arms.values():
        assert arm.capacity_kbps > 0
        assert arm.buyers


def test_adaptive_revenue_beats_both_arms(result):
    adaptive = result.arms["adaptive"]
    assert adaptive.revenue_mist >= result.arms["none"].revenue_mist
    assert adaptive.revenue_mist >= result.arms["static"].revenue_mist


def test_adaptive_goodput_beats_both_arms(result):
    adaptive = result.arms["adaptive"]
    assert adaptive.reserved_goodput_bps >= result.arms["none"].reserved_goodput_bps
    assert adaptive.reserved_goodput_bps >= result.arms["static"].reserved_goodput_bps


def test_no_honest_buyer_is_ever_demoted(result):
    for arm in result.arms.values():
        assert arm.honest_demotions == 0, arm.arm


def test_reclamation_only_happens_in_the_adaptive_arm(result):
    assert result.arms["none"].reclaim_events == 0
    assert result.arms["static"].reclaim_events == 0
    adaptive = result.arms["adaptive"]
    assert adaptive.reclaim_events > 0
    assert adaptive.reclaimed_kbps > 0
    assert adaptive.false_reclaims == 0  # no-shows here never send


def test_adaptive_factor_learned_from_no_shows(result):
    # Half the early buyers are no-shows, so the learned factor must have
    # moved off 1.0 — and stay inside the configured ceiling.
    adaptive = result.arms["adaptive"]
    assert 1.0 < adaptive.live_factor <= 3.0
    assert result.arms["static"].live_factor == pytest.approx(1.25)
    assert result.arms["none"].live_factor == 1.0


def test_closed_loop_admits_more_reserved_buyers(result):
    counts = {name: len(admitted(arm.buyers)) for name, arm in result.arms.items()}
    assert counts["adaptive"] > counts["static"] > counts["none"]


def test_late_buyers_queue_until_reclamation_frees_capacity(result):
    adaptive = result.arms["adaptive"]
    late = [b for b in admitted(adaptive.buyers) if b.buyer.startswith("late-")]
    assert late, "reclamation never freed room for a late buyer"
    for buyer in late:
        assert adaptive.admitted_at[buyer.buyer] > 0
