"""Two-phase path admission: screen/commit/rollback semantics."""

import pytest

from tests.fingerprint import calendar_fingerprint, controller_fingerprint

from repro.admission import (
    ISSUED,
    AdmissionController,
    AdmissionPolicy,
)
from repro.pathadm import (
    COMMITTED,
    HELD,
    REJECTED,
    ROLLED_BACK,
    PathAdmission,
    PathCommitError,
    PathHop,
)
from repro.telemetry import ExperimentTelemetry


def make_path(capacities=(1000, 1000, 1000), **controller_kwargs):
    hops = [
        PathHop(f"as{i}", AdmissionController(cap, **controller_kwargs), 1, 2)
        for i, cap in enumerate(capacities)
    ]
    return PathAdmission(hops)


def test_screen_holds_every_hop_both_directions():
    path = make_path()
    ticket = path.screen(600, 0.0, 3600.0, tag="alice")
    assert ticket.state == HELD and ticket.admitted
    assert len(ticket.holds) == 3
    for hold, hop in zip(ticket.holds, path.hops):
        assert [c[:2] for c in hold.claims] == [(1, True), (2, False)]
        for interface, is_ingress, commitment in hold.claims:
            calendar = hop.controller.calendar(interface, is_ingress, ISSUED)
            assert calendar.peak_commitment(0.0, 3600.0) == 600
            assert commitment.tag == "alice"


def test_screen_rejection_releases_upstream_byte_identical():
    path = make_path(capacities=(1000, 1000, 500))
    before = [controller_fingerprint(hop.controller) for hop in path.hops]
    ticket = path.screen(600, 0.0, 3600.0, tag="bob")
    assert ticket.state == REJECTED and not ticket.admitted
    assert ticket.failed_hop == 2
    assert "as2" in ticket.reason
    after = [controller_fingerprint(hop.controller) for hop in path.hops]
    assert after == before


def test_mid_hop_rejection_releases_same_hop_ingress_claim():
    # Capacity asymmetric inside one hop: ingress fits, egress does not.
    controller = AdmissionController(1000)
    controller.calendar(2, False).commit(900, 0.0, 3600.0)
    path = PathAdmission([PathHop("as0", controller, 1, 2)])
    before = controller_fingerprint(controller)
    ticket = path.screen(600, 0.0, 3600.0)
    assert ticket.state == REJECTED and ticket.failed_hop == 0
    assert controller_fingerprint(controller) == before


def test_commit_without_hook_keeps_holds():
    path = make_path()
    ticket = path.commit(path.screen(600, 0.0, 3600.0))
    assert ticket.state == COMMITTED
    for hop in path.hops:
        assert hop.controller.calendar(1, True, ISSUED).peak_commitment(0, 3600) == 600


def test_commit_hook_runs_in_path_order():
    path = make_path()
    seen = []
    path.commit(
        path.screen(600, 0.0, 3600.0),
        hook=lambda index, hop, hold: seen.append((index, hop.name)),
    )
    assert seen == [(0, "as0"), (1, "as1"), (2, "as2")]


def test_commit_failure_at_hop_k_rolls_back_everything():
    path = make_path()
    before = [controller_fingerprint(hop.controller) for hop in path.hops]

    def explode_at_2(index, hop, hold):
        if index == 2:
            raise RuntimeError("ledger rejected the delivery")

    ticket = path.screen(600, 0.0, 3600.0)
    with pytest.raises(PathCommitError) as err:
        path.commit(ticket, hook=explode_at_2)
    assert err.value.hop_index == 2
    assert ticket.state == ROLLED_BACK and ticket.failed_hop == 2
    after = [controller_fingerprint(hop.controller) for hop in path.hops]
    assert after == before


def test_rollback_restores_capacity_and_is_idempotent():
    path = make_path()
    ticket = path.screen(900, 0.0, 3600.0)
    assert path.screen(900, 0.0, 3600.0).state == REJECTED  # held capacity
    path.rollback(ticket)
    assert ticket.state == ROLLED_BACK
    path.rollback(ticket)  # no-op, must not double-release
    assert path.screen(900, 0.0, 3600.0).state == HELD


def test_rollback_of_committed_ticket_releases_capacity():
    path = make_path()
    ticket = path.commit(path.screen(900, 0.0, 3600.0))
    path.rollback(ticket)
    assert path.screen(900, 0.0, 3600.0).admitted


def test_commit_of_rejected_ticket_raises():
    path = make_path(capacities=(100,))
    ticket = path.screen(600, 0.0, 3600.0)
    with pytest.raises(ValueError):
        path.commit(ticket)


def test_heterogeneous_hops_policy_and_sharding():
    hops = [
        PathHop("day-overbooked", AdmissionController(1000, policy=AdmissionPolicy(1.5)), 1, 2),
        PathHop("sharded-fcfs", AdmissionController(600, shard_seconds=600.0), 3, 4),
    ]
    path = PathAdmission(hops)
    assert path.screen(400, 0.0, 3600.0, tag="greedy").admitted
    # Second request overfills the sharded hop only.
    ticket = path.screen(400, 0.0, 3600.0, tag="greedy")
    assert ticket.state == REJECTED and ticket.failed_hop == 1
    assert "only 200 kbps free" in ticket.reason
    # The day-wide hop's provisional hold was released.
    day = hops[0].controller.calendar(1, True, ISSUED)
    assert day.peak_commitment(0, 3600) == 400


def test_no_oversell_under_interleaved_paths():
    shared = AdmissionController(1000)
    left = PathAdmission([PathHop("as0", shared, 1, 2)])
    right = PathAdmission([PathHop("as0", shared, 1, 2)])
    tickets = [p.screen(400, 0.0, 3600.0, tag=f"b{i}") for i, p in
               enumerate([left, right, left, right])]
    admitted = [t for t in tickets if t.admitted]
    assert len(admitted) == 2  # 3rd and 4th would oversell 1000 kbps
    assert shared.calendar(1, True, ISSUED).peak_commitment(0, 3600) == 800


def test_screen_emits_spans_and_counters():
    telemetry = ExperimentTelemetry("pathadm_unit")
    with telemetry.activate():
        path = make_path(capacities=(1000, 500))
        trace = telemetry.trace("path_lifecycle")
        from repro.telemetry.tracing import use_trace

        with use_trace(trace):
            ticket = path.screen(600, 0.0, 3600.0)
            assert ticket.state == REJECTED
            held = path.screen(400, 0.0, 3600.0)
            path.commit(held)
            path.rollback(held)
        names = [span.name for span in trace.spans]
        assert names.count("path.screen") == 2
        assert "path.commit" in names and "path.rollback" in names
        assert "admission.decision" in names  # per-hop admits share the trace
        screen = next(s for s in trace.spans if s.name == "path.screen")
        assert screen.attrs["outcome"] == REJECTED
        assert screen.attrs["failed_hop"] == 1
    dump = telemetry.to_dict()
    counters = {
        (family["name"], tuple(child["labels"])): child["value"]
        for family in dump["metrics"]
        if family["kind"] == "counter"
        for child in family["children"]
    }
    assert counters[("pathadm_screen_total", ("rejected",))] == 1.0
    assert counters[("pathadm_screen_total", ("held",))] == 1.0
    assert counters[("pathadm_commit_total", ("committed",))] == 1.0
    assert counters[("pathadm_rollback_total", ())] == 1.0


def test_calendar_fingerprint_detects_state_changes():
    controller = AdmissionController(1000, shard_seconds=600.0)
    baseline = controller_fingerprint(controller)
    decision = controller.admit_issue(1, True, 300, 0.0, 3600.0, tag="x")
    changed = controller_fingerprint(controller)
    assert changed != baseline
    controller.release(1, True, decision.commitment)
    assert controller_fingerprint(controller) == baseline
    # Monolithic calendars fingerprint through the same helper.
    mono = AdmissionController(1000)
    d = mono.admit_issue(1, True, 300, 0.0, 3600.0)
    fp = calendar_fingerprint(mono.calendar(1, True, ISSUED))
    mono.release(1, True, d.commitment)
    assert calendar_fingerprint(mono.calendar(1, True, ISSUED)) != fp
