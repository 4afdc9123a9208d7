"""repro.invariants.check: a calendar is a replay of its records, within its limit."""

from types import SimpleNamespace

import pytest

from repro.admission import ACTIVE, AdmissionController, OverbookingPolicy
from repro.invariants import InvariantBreach, check

GEOMETRIES = [pytest.param(None, id="unbounded"), pytest.param(100.0, id="sharded")]


def _deployment(**controllers):
    return SimpleNamespace(
        services={
            name: SimpleNamespace(admission=controller)
            for name, controller in controllers.items()
        }
    )


@pytest.mark.parametrize("shard_seconds", GEOMETRIES)
def test_a_busy_controller_holds_even_past_dropped_shards(shard_seconds):
    controller = AdmissionController(1000, shard_seconds=shard_seconds)
    spanning = controller.admit_issue(1, True, 600, 50, 450, tag="a")
    controller.admit_issue(1, True, 400, 120, 180, tag="b")
    controller.admit_reservation(2, False, 300, 0, 90)
    controller.calendar(1, True).reclaim(spanning.commitment.commitment_id, 200)
    controller.expire(210)  # drops two shards under the live spanning commitment
    check(_deployment(a=controller), now=210)


@pytest.mark.parametrize("shard_seconds", GEOMETRIES)
def test_a_level_no_record_explains_is_a_breach(shard_seconds):
    controller = AdmissionController(1000, shard_seconds=shard_seconds)
    controller.admit_issue(1, True, 600, 50, 250)
    (shard, *_) = controller.calendar(1, True)._shards.values()
    shard.add(5, 60, 70)  # a leaked piece
    with pytest.raises(InvariantBreach, match=r"\[50, 250\) carries 605 kbps.*replay to 600"):
        check(_deployment(a=controller), now=0)
    check(_deployment(a=controller), now=70)  # nothing wrong from there on


def test_the_limit_is_the_policy_factor_and_every_breach_is_listed():
    strict = AdmissionController(1000)
    strict.calendar(1, True).commit(1200, 0, 100)  # past a policy that never overbooks
    betting = AdmissionController(1000, policy=OverbookingPolicy(1.5))
    assert betting.admit_reservation(1, True, 1400, 0, 100).admitted
    check(_deployment(betting=betting), now=0)
    betting.calendar(1, False, ACTIVE).commit(1501, 0, 100)
    with pytest.raises(InvariantBreach) as caught:
        check(_deployment(strict=strict, betting=betting), now=0)
    assert len(caught.value.breaches) == 2
    assert "AS strict issued interface 1 ingress" in caught.value.breaches[0]
    assert "over 1.5 x 1000 kbps" in caught.value.breaches[1]
