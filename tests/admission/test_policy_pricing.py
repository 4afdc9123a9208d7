"""The admission rule, scarcity pricing, and the per-AS controller."""

import pytest

from repro.admission import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRequest,
    CapacityCalendar,
    FlatPricer,
    ScarcityPricer,
)
from repro.reclaim import AdaptiveOverbooking

from tests.conftest import EagerOverbooking


class TestFirstComeFirstServed:
    """The rule at its default factor of 1: capacity, arrival order decides."""

    def test_arrival_order_wins(self):
        policy = AdmissionPolicy()
        calendar = CapacityCalendar(1000)
        first = policy.admit(calendar, AdmissionRequest(600, 0, 100, "early"))
        second = policy.admit(calendar, AdmissionRequest(600, 0, 100, "late"))
        assert first.admitted and not second.admitted
        assert "only 400 kbps free" in second.reason

    def test_release_undoes_admission(self):
        policy = AdmissionPolicy()
        calendar = CapacityCalendar(1000)
        decision = policy.admit(calendar, AdmissionRequest(600, 0, 100))
        calendar.release(decision.commitment.commitment_id)
        assert policy.admit(calendar, AdmissionRequest(1000, 0, 100)).admitted


class TestOverbooking:
    def test_admits_beyond_capacity_up_to_factor(self):
        policy = AdmissionPolicy(factor=2.0)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1500, 0, 100)).admitted
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100)).admitted
        assert not policy.admit(calendar, AdmissionRequest(1, 0, 100)).admitted

    def test_factor_one_is_plain_capacity(self):
        policy = AdmissionPolicy(factor=1.0)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1000, 0, 100)).admitted
        assert not policy.admit(calendar, AdmissionRequest(1, 0, 100)).admitted

    def test_an_overbooked_refusal_counts_free_room_under_the_limit(self):
        policy = AdmissionPolicy(factor=1.25)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1200, 0, 100)).admitted
        refused = policy.admit(calendar, AdmissionRequest(100, 0, 100))
        assert refused.reason == "needs 100 kbps, only 50 kbps free"

    def test_a_factor_that_fell_below_the_peak_leaves_no_room(self):
        policy, calendar = AdaptiveOverbooking(), CapacityCalendar(1000)
        assert policy.observe([calendar], 0.5) == pytest.approx(2.0)
        assert policy.admit(calendar, AdmissionRequest(1800, 0, 100)).admitted
        policy.observe([calendar], 1.0)  # the limit falls to 1538 kbps, under the peak
        refused = policy.admit(calendar, AdmissionRequest(100, 0, 100))
        assert refused.reason == "needs 100 kbps, only 0 kbps free"

    def test_a_static_factor_observes_and_keeps_its_factor(self):
        policy, calendar = AdmissionPolicy(1.5), CapacityCalendar(1000)
        assert policy.observe([calendar], 0.1) == 1.5
        assert policy.limit_factor(calendar) == policy.ceiling_factor(calendar) == 1.5

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(0.5)


# The rule at every kind of factor an AS can deploy, with the kbps it admits
# on a 1000 kbps link.
POLICIES = [
    pytest.param(AdmissionPolicy, 1000, id="fcfs"),
    pytest.param(lambda: AdmissionPolicy(2.0), 2000, id="overbooking-2x"),
    pytest.param(EagerOverbooking, 1500, id="adaptive-1.5x"),
]


@pytest.mark.parametrize("make_policy, limit", POLICIES)
class TestNoBuyerCap:
    """No policy caps a buyer: what is committed decides, never who asks."""

    def test_one_buyer_may_fill_the_whole_limit(self, make_policy, limit):
        policy, calendar = make_policy(), CapacityCalendar(1000)
        quarter = AdmissionRequest(limit // 4, 0, 100, "whale")
        for _ in range(4):
            assert policy.admit(calendar, quarter).admitted
        held = [c.bandwidth_kbps for c in calendar.commitments() if c.tag == "whale"]
        assert sum(held) == limit
        assert not policy.admit(calendar, AdmissionRequest(1, 0, 100, "minnow")).admitted

    def test_who_asks_never_changes_a_decision(self, make_policy, limit):
        for kbps in (limit // 4, limit // 2, limit // 2 + 1):
            decisions = []
            for buyer in ("whale", "minnow"):
                policy, calendar = make_policy(), CapacityCalendar(1000)
                half = AdmissionRequest(limit // 2, 0, 100, "whale")
                assert policy.admit(calendar, half).admitted
                decision = policy.admit(calendar, AdmissionRequest(kbps, 0, 100, buyer))
                decisions.append((decision.admitted, decision.reason))
            assert decisions[0] == decisions[1], kbps
            assert decisions[0][0] == (kbps <= limit // 2), kbps

    def test_the_controller_lets_one_tag_take_every_window(self, make_policy, limit):
        controller = AdmissionController(1000, policy=make_policy())
        for start in (0.0, 100.0):
            for _ in range(2):
                half = controller.admit_issue(1, True, limit // 2, start, start + 100, "whale")
                assert half.admitted
        calendar = controller.calendar(1, True)
        assert calendar.peak_commitment(0, 200) == limit
        assert sum(c.bandwidth_kbps for c in calendar.commitments()) == 2 * limit
        assert {c.tag for c in calendar.commitments()} == {"whale"}
        assert not controller.admit_issue(1, True, 1, 50.0, 150.0, tag="minnow").admitted


class TestPricing:
    def test_empty_interface_is_base_price(self):
        pricer = ScarcityPricer()
        assert pricer.multiplier(0.0) == 1.0
        assert pricer.price(50, 0.0) == 50

    def test_multiplier_monotone_in_utilization(self):
        pricer = ScarcityPricer()
        values = [pricer.multiplier(u / 10) for u in range(11)]
        assert values == sorted(values)
        assert values[-1] == pricer.MAX_MULTIPLIER

    def test_capped_at_max_multiplier(self):
        pricer = ScarcityPricer()
        assert pricer.multiplier(0.9999) == 64.0
        assert pricer.multiplier(2.0) == 64.0  # overbooked utilization > 1

    def test_price_rounds_up_and_floors_at_one(self):
        pricer = ScarcityPricer()
        assert pricer.price(50, 0.5) == 63  # 50 * 1.25 = 62.5 -> ceil
        assert FlatPricer().price(0, 0.9) == 1

    def test_price_exact_above_float_precision(self):
        # Regression: base * multiplier through float silently dropped the
        # low bits of bases above 2^53 — 10^17 + 1 quoted 10^17 at
        # multiplier 1.0, undercharging every unit sold.
        base = 10**17 + 1
        assert FlatPricer().price(base, 0.9) == base
        assert ScarcityPricer().price(base, 0.0) == base  # multiplier == 1.0
        # Non-unit multipliers stay exact too: ceil(base * 1.25) in ints.
        pricer = ScarcityPricer()
        assert pricer.price(base, 0.5) == -(-base * 5 // 4)


class TestController:
    def test_layers_are_independent(self):
        controller = AdmissionController(1000)
        assert controller.admit_issue(1, True, 800, 0, 100).admitted
        # The active layer still has full headroom for the same window.
        assert controller.admit_reservation(1, True, 800, 0, 100).admitted
        assert not controller.admit_issue(1, True, 300, 0, 100).admitted
        assert controller.rejections == 1

    def test_directions_are_independent(self):
        controller = AdmissionController(1000)
        assert controller.admit_issue(1, True, 1000, 0, 100).admitted
        assert controller.admit_issue(1, False, 1000, 0, 100).admitted

    def test_interfaces_are_independent(self):
        controller = AdmissionController(1000)
        assert controller.admit_issue(7, True, 600, 0, 100).admitted
        assert not controller.admit_issue(7, True, 500, 0, 100).admitted
        assert controller.admit_issue(8, True, 500, 0, 100).admitted

    def test_quote_tracks_worse_layer(self):
        controller = AdmissionController(1000, pricer=ScarcityPricer())
        base = controller.quote(50, 1, True, 0, 100)
        assert base == 50
        controller.admit_reservation(1, True, 900, 0, 100)
        assert controller.quote(50, 1, True, 0, 100) > 50

    def test_release_then_expire(self):
        controller = AdmissionController(1000)
        decision = controller.admit_issue(1, True, 800, 0, 100)
        controller.release(1, True, decision.commitment)
        assert controller.admit_issue(1, True, 1000, 0, 100).admitted
        assert controller.calendar(1, True).expire(200) == 1
        assert len(controller.calendar(1, True).commitments()) == 0

    def test_unknown_layer_rejected(self):
        controller = AdmissionController(1000)
        with pytest.raises(ValueError):
            controller.calendar(1, True, layer="imaginary")
