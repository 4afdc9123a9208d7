"""A host checks what it was delivered: one test per lie an AS can tell.

Each case has the middle AS of a 3-AS chain grant a record that differs from
what the host redeemed in one field — the bandwidth class, the window, the
interfaces or the AS — by wrapping ``grant_reservation`` as
``AsService._deliver`` calls it, for that AS only.  The host must refuse the
record: ``purchase_path`` raises naming the AS and the field, the request is
in ``host.misdelivered`` under the host's code, and the error carries the two
honest hops' records, which no later collect returns.
"""

import dataclasses

import pytest

from tests.conftest import T0

from repro.clock import SimClock
from repro.controlplane import Misdelivery, asclient, deploy_market, purchase_path
from repro.netsim.scenarios import linear_path
from repro.scion import as_crossings
from repro.wire import bwcls


@pytest.fixture(scope="module")
def world():
    topology, path = linear_path(3)
    deployment = deploy_market(topology, clock=SimClock(float(T0)), asset_duration=14_400)
    return {"deployment": deployment, "path": path, "next_start": [T0 + 3600]}


LIES = {
    # field told wrong -> (the host's code, how the middle AS tells it)
    "bandwidth class": ("wrong_bw_cls", lambda isd_as, info, other: (
        isd_as, dataclasses.replace(info, bw_cls=bwcls.encode_floor(1)))),
    "window": ("wrong_duration", lambda isd_as, info, other: (
        isd_as, dataclasses.replace(info, duration=10))),
    "interfaces": ("wrong_ingress", lambda isd_as, info, other: (
        isd_as, dataclasses.replace(info, ingress=info.egress, egress=info.ingress))),
    "AS": ("wrong_as", lambda isd_as, info, other: (other, info)),
}


@pytest.mark.parametrize("lie", LIES)
def test_the_host_refuses_a_record_it_did_not_redeem(world, lie, monkeypatch):
    code, tell = LIES[lie]
    deployment, crossings = world["deployment"], as_crossings(world["path"])
    liar, other = crossings[1].isd_as, crossings[0].isd_as
    honest = asclient.grant_reservation

    def grant(isd_as, secret_value, resinfo, prf_factory):
        if isd_as == liar:
            isd_as, resinfo = tell(isd_as, resinfo, other)
        return honest(isd_as, secret_value, resinfo, prf_factory)

    monkeypatch.setattr(asclient, "grant_reservation", grant)
    start = world["next_start"][0]
    world["next_start"][0] += 1200
    host = deployment.new_host(funding_sui=100)
    with pytest.raises(Misdelivery, match=f"^AS {liar} misdelivered: {code}$") as raised:
        purchase_path(
            deployment, host, crossings, start=start, expiry=start + 600, bandwidth_kbps=4000
        )
    assert list(host.misdelivered.values()) == [code]
    assert host.undecryptable == [] and host.refused == {}
    honest = [crossings[0], crossings[2]]
    assert [
        (r.isd_as, r.resinfo.ingress, r.resinfo.egress, r.resinfo.start)
        for r in raised.value.reservations
    ] == [(c.isd_as, c.ingress, c.egress, start) for c in honest]
    assert host.collect_reservations() == []
