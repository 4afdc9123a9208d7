"""Hypothesis proof of the byte-identical rollback guarantee.

Random paths (hop count, per-hop shard widths from a day down to 600 s,
auction and posted allocation modes interleaved), random pre-populated base
load, then a random mix of

* screens that succeed and are rolled back,
* screens that fail at a random hop (capacity asymmetry makes any hop
  the failing one),
* commits whose per-hop effect hook fails at a random hop,
* commits that succeed and are rolled back later,

must leave **every** calendar of every hop byte-identical (per
:func:`tests.fingerprint.controller_fingerprint`) to the state
right after pre-population — i.e. as if the paths had never existed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.fingerprint import controller_fingerprint

from repro.admission import (
    ACTIVE,
    DEFAULT_SHARD_SECONDS,
    ISSUED,
    AdmissionController,
)
from repro.pathadm import (
    PathAdmission,
    PathCommitError,
    PathHop,
)

WINDOW = 3600.0

hop_strategy = st.fixed_dictionaries(
    {
        "capacity": st.sampled_from([400, 700, 1000]),
        "shard_seconds": st.sampled_from([DEFAULT_SHARD_SECONDS, 600.0, 1800.0]),
        "auction_mode": st.booleans(),
    }
)

op_strategy = st.fixed_dictionaries(
    {
        "bandwidth": st.integers(min_value=50, max_value=1200),
        "start_slot": st.integers(min_value=0, max_value=5),
        "duration_slots": st.integers(min_value=1, max_value=3),
        "tag": st.sampled_from(["alice", "bob", "carol"]),
        "action": st.sampled_from(["screen", "commit", "commit_fail"]),
        "fail_hop": st.integers(min_value=0, max_value=3),
    }
)

base_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "bandwidth": st.integers(min_value=20, max_value=200),
            "start_slot": st.integers(min_value=0, max_value=5),
            "hop": st.integers(min_value=0, max_value=3),
            "layer": st.sampled_from([ISSUED, ACTIVE]),
        }
    ),
    max_size=4,
)


def build_path(hop_specs):
    hops = []
    for index, spec in enumerate(hop_specs):
        controller = AdmissionController(
            capacity_kbps=spec["capacity"],
            shard_seconds=spec["shard_seconds"],
            # the hop's two directions, as ``PathHop`` names them below
            auction_interfaces=(
                {(index + 1, True), (index + 2, False)} if spec["auction_mode"] else None
            ),
        )
        hops.append(PathHop(f"as{index}", controller, index + 1, index + 2))
    return PathAdmission(hops)


@settings(max_examples=40, deadline=None)
@given(
    hop_specs=st.lists(hop_strategy, min_size=1, max_size=4),
    base_load=base_strategy,
    ops=st.lists(op_strategy, min_size=1, max_size=6),
)
def test_rollback_leaves_every_hop_byte_identical(hop_specs, base_load, ops):
    path = build_path(hop_specs)
    # Pre-populate: permanent commitments that must survive untouched.
    for item in base_load:
        hop = path.hops[item["hop"] % len(path.hops)]
        start = item["start_slot"] * WINDOW
        admit = (
            hop.controller.admit_issue
            if item["layer"] == ISSUED
            else hop.controller.admit_reservation
        )
        admit(
            hop.ingress_interface, True, item["bandwidth"], start, start + WINDOW,
            tag="base",
        )
    baseline = [controller_fingerprint(hop.controller) for hop in path.hops]

    committed = []
    for op in ops:
        start = op["start_slot"] * WINDOW
        end = start + op["duration_slots"] * WINDOW
        ticket = path.screen(op["bandwidth"], start, end, tag=op["tag"])
        if not ticket.admitted:
            path.rollback(ticket)  # idempotent no-op on rejected tickets
            if not committed:
                # Nothing else is held, so a failed screen must already
                # have restored every hop to the baseline.
                now = [controller_fingerprint(hop.controller) for hop in path.hops]
                assert now == baseline
            continue
        if op["action"] == "screen":
            path.rollback(ticket)
        elif op["action"] == "commit_fail":
            fail_at = op["fail_hop"] % len(path.hops)

            def hook(index, hop, hold, fail_at=fail_at):
                if index == fail_at:
                    raise RuntimeError("boom")

            try:
                path.commit(ticket, hook=hook)
            except PathCommitError:
                pass
            else:  # hook never fired (fail_at past a shorter holds list)
                path.rollback(ticket)
        else:
            path.commit(ticket)
            committed.append(ticket)

    for ticket in committed:
        path.rollback(ticket)
    final = [controller_fingerprint(hop.controller) for hop in path.hops]
    assert final == baseline


@settings(max_examples=25, deadline=None)
@given(
    hop_specs=st.lists(hop_strategy, min_size=2, max_size=4),
    failing_hop=st.integers(min_value=0, max_value=3),
    bandwidth=st.integers(min_value=100, max_value=600),
)
def test_failed_screen_at_hop_k_restores_upstream(hop_specs, failing_hop, bandwidth):
    path = build_path(hop_specs)
    failing_hop %= len(path.hops)
    # Force a failure at hop k: saturate its egress direction by committing
    # straight into the calendar.  An earlier hop may still reject first (it
    # is narrower or fuller), so the screen must fail at or before hop k.
    victim = path.hops[failing_hop]
    victim.controller.calendar(victim.egress_interface, False, ISSUED).commit(
        victim.controller.capacity_kbps,
        0.0,
        WINDOW,
        tag="blocker",
    )
    baseline = [controller_fingerprint(hop.controller) for hop in path.hops]
    ticket = path.screen(bandwidth, 0.0, WINDOW, tag="victim")
    assert not ticket.admitted
    assert ticket.failed_hop is not None and ticket.failed_hop <= failing_hop
    after = [controller_fingerprint(hop.controller) for hop in path.hops]
    assert after == baseline


@settings(max_examples=25, deadline=None)
@given(
    hop_specs=st.lists(hop_strategy, min_size=2, max_size=4),
    fail_at=st.integers(min_value=0, max_value=3),
    bandwidth=st.integers(min_value=50, max_value=300),
)
def test_failed_commit_at_hop_k_restores_all(hop_specs, fail_at, bandwidth):
    path = build_path(hop_specs)
    fail_at %= len(path.hops)
    baseline = [controller_fingerprint(hop.controller) for hop in path.hops]
    ticket = path.screen(bandwidth, 0.0, WINDOW, tag="buyer")
    if not ticket.admitted:
        assert [controller_fingerprint(h.controller) for h in path.hops] == baseline
        return

    def hook(index, hop, hold):
        if index == fail_at:
            raise RuntimeError("ledger down")

    with pytest.raises(PathCommitError) as err:
        path.commit(ticket, hook=hook)
    assert err.value.hop_index == fail_at
    after = [controller_fingerprint(hop.controller) for hop in path.hops]
    assert after == baseline
