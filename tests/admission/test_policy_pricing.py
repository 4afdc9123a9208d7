"""Admission policies, scarcity pricing, and the per-AS controller."""

import pytest

from repro.admission import (
    AdmissionController,
    AdmissionRequest,
    CapacityCalendar,
    FirstComeFirstServed,
    FlatPricer,
    OverbookingPolicy,
    ProportionalShare,
    ScarcityPricer,
)


class TestFirstComeFirstServed:
    def test_arrival_order_wins(self):
        policy = FirstComeFirstServed()
        calendar = CapacityCalendar(1000)
        first = policy.admit(calendar, AdmissionRequest(600, 0, 100, "early"))
        second = policy.admit(calendar, AdmissionRequest(600, 0, 100, "late"))
        assert first.admitted and not second.admitted
        assert "only 400 kbps free" in second.reason

    def test_release_undoes_admission(self):
        policy = FirstComeFirstServed()
        calendar = CapacityCalendar(1000)
        decision = policy.admit(calendar, AdmissionRequest(600, 0, 100))
        calendar.release(decision.commitment.commitment_id)
        assert policy.admit(calendar, AdmissionRequest(1000, 0, 100)).admitted


class TestProportionalShare:
    def test_caps_single_buyer(self):
        policy = ProportionalShare(max_fraction=0.5)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(400, 0, 100, "whale")).admitted
        hit_cap = policy.admit(calendar, AdmissionRequest(200, 0, 100, "whale"))
        assert not hit_cap.admitted
        assert "share cap" in hit_cap.reason
        # A different buyer still gets the remaining capacity.
        assert policy.admit(calendar, AdmissionRequest(200, 0, 100, "minnow")).admitted

    def test_cap_is_per_window(self):
        policy = ProportionalShare(max_fraction=0.5)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100, "whale")).admitted
        # Same buyer, disjoint time: the share cap applies per window.
        assert policy.admit(calendar, AdmissionRequest(500, 100, 200, "whale")).admitted

    def test_global_capacity_still_enforced(self):
        policy = ProportionalShare(max_fraction=1.0)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(900, 0, 100, "a")).admitted
        assert not policy.admit(calendar, AdmissionRequest(200, 0, 100, "b")).admitted

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ProportionalShare(0)
        with pytest.raises(ValueError):
            ProportionalShare(1.5)


class TestOverbooking:
    def test_admits_beyond_capacity_up_to_factor(self):
        policy = OverbookingPolicy(factor=2.0)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1500, 0, 100)).admitted
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100)).admitted
        assert not policy.admit(calendar, AdmissionRequest(1, 0, 100)).admitted

    def test_factor_one_is_plain_capacity(self):
        policy = OverbookingPolicy(factor=1.0)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1000, 0, 100)).admitted
        assert not policy.admit(calendar, AdmissionRequest(1, 0, 100)).admitted

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            OverbookingPolicy(0.5)


class TestPricing:
    def test_empty_interface_is_base_price(self):
        pricer = ScarcityPricer()
        assert pricer.multiplier(0.0) == 1.0
        assert pricer.price(50, 0.0) == 50

    def test_multiplier_monotone_in_utilization(self):
        pricer = ScarcityPricer()
        values = [pricer.multiplier(u / 10) for u in range(11)]
        assert values == sorted(values)
        assert values[-1] == pricer.max_multiplier

    def test_capped_at_max_multiplier(self):
        pricer = ScarcityPricer(max_multiplier=10.0)
        assert pricer.multiplier(0.9999) == 10.0
        assert pricer.multiplier(2.0) == 10.0  # overbooked utilization > 1

    def test_price_rounds_up_and_floors_at_one(self):
        pricer = ScarcityPricer(alpha=0.5)
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
        pricer = ScarcityPricer(alpha=0.5)
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

    def test_per_interface_capacity_override(self):
        controller = AdmissionController(1000, capacities={(7, True): 100})
        assert not controller.admit_issue(7, True, 500, 0, 100).admitted
        assert controller.admit_issue(8, True, 500, 0, 100).admitted

    def test_quote_tracks_worse_layer(self):
        controller = AdmissionController(1000, pricer=ScarcityPricer())
        base = controller.quote(50, 1, True, 0, 100)
        assert base == 50
        controller.admit_reservation(1, True, 900, 0, 100)
        assert controller.quote(50, 1, True, 0, 100) > 50

    def test_release_and_expire(self):
        controller = AdmissionController(1000)
        decision = controller.admit_issue(1, True, 800, 0, 100)
        controller.release(1, True, decision.commitment)
        assert controller.admit_issue(1, True, 1000, 0, 100).admitted
        assert controller.expire(200) == 1
        assert controller.calendar(1, True).commitment_count == 0

    def test_unknown_layer_rejected(self):
        controller = AdmissionController(1000)
        with pytest.raises(ValueError):
            controller.calendar(1, True, layer="imaginary")


class TestOverbookingShareCap:
    """Regression sweep: share caps must survive the switch to overbooking."""

    def test_share_cap_is_against_physical_capacity(self):
        # The overbooked limit is 2000 kbps, but the link is still 1000:
        # a 50% share cap means 500, not 1000.
        policy = OverbookingPolicy(factor=2.0, max_fraction=0.5)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100, "whale")).admitted
        denied = policy.admit(calendar, AdmissionRequest(1, 0, 100, "whale"))
        assert not denied.admitted
        assert "physical" in denied.reason
        # Other buyers still enjoy the overbooked limit.
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100, "b")).admitted
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100, "c")).admitted
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100, "d")).admitted
        assert not policy.admit(calendar, AdmissionRequest(1, 0, 100, "e")).admitted

    def test_cap_is_per_window_under_overbooking(self):
        policy = OverbookingPolicy(factor=1.5, max_fraction=0.5)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(500, 0, 100, "whale")).admitted
        assert policy.admit(calendar, AdmissionRequest(500, 100, 200, "whale")).admitted

    def test_no_cap_by_default(self):
        policy = OverbookingPolicy(factor=1.5)
        calendar = CapacityCalendar(1000)
        assert policy.admit(calendar, AdmissionRequest(1400, 0, 100, "whale")).admitted

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            OverbookingPolicy(1.5, max_fraction=0)
        with pytest.raises(ValueError):
            OverbookingPolicy(1.5, max_fraction=1.1)

    def test_controller_share_cap_survives_overbooking_policies(self):
        # isinstance(ProportionalShare) used to drop the cap silently the
        # moment an AS overbooked; duck-typing on max_fraction keeps it.
        capped = AdmissionController(
            1000, policy=OverbookingPolicy(1.5, max_fraction=0.25)
        )
        assert capped.share_cap_kbps(1, True) == 250
        uncapped = AdmissionController(1000, policy=OverbookingPolicy(1.5))
        assert uncapped.share_cap_kbps(1, True) is None
        proportional = AdmissionController(1000, policy=ProportionalShare(0.25))
        assert proportional.share_cap_kbps(1, True) == 250
