"""Routers and sources key their long-lived PRFs once — and nothing else.

The AES ledger of a reserved packet, the router's statelessness across
reservations, and what happens when an AS replaces a key the router holds.
"""

import pytest

from tests.conftest import T0, addresses, grant_full_path, reachable, walk_path

from repro.crypto.keys import SecretValue
from repro.crypto.prf import PrfFactory
from repro.hummingbird.duplicate import DuplicateFilter
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.netsim.scenarios import linear_path
from repro.scion.router import Action

AES = PrfFactory("aes")
PRIORITY_WALK = [Action.FORWARD_PRIORITY] * 3 + [Action.DELIVER]


@pytest.fixture
def chain4_aes():
    return linear_path(4, timestamp=T0, prf_factory=AES)


def routers_for(topology, clock, **kwargs):
    return {a.isd_as: HummingbirdRouter(a, clock, AES, **kwargs) for a in topology.ases}


def actions(topology, routers, packet, path):
    return [d.action for d in walk_path(topology, routers, packet, path.src)]


def test_aes_ledger_of_one_reserved_packet_over_four_hops(chain4_aes, clock, aes_calls):
    """Per hop 1 expansion (A_i) + 3 encryptions; the source 4 encryptions."""
    topology, path = chain4_aes
    reservations = grant_full_path(topology, path, start=T0 - 5, prf_factory=AES)
    src, dst = addresses(path)
    source = HummingbirdSource(src, dst, path, reservations, clock, AES)
    routers = routers_for(topology, clock)
    aes_calls.update(expand_key=0, encrypt_block=0)  # set-up is not per packet

    packet = source.build_packet(bytes(500))
    assert aes_calls == {"expand_key": 0, "encrypt_block": 4}
    assert actions(topology, routers, packet, path) == PRIORITY_WALK
    assert aes_calls["expand_key"] <= 4  # parent commit: 32
    assert aes_calls["encrypt_block"] <= 16  # parent commit: 32


def test_router_keeps_nothing_per_reservation(chain4_aes, clock):
    """200 distinct ResIDs later the router holds what it held at construction:
    outside the policer and the optional duplicate filter no attribute appeared,
    no container grew, no A_K is reachable and the held PRFs are the same two."""
    topology, path = chain4_aes
    src, dst = addresses(path)
    router = HummingbirdRouter(
        topology.as_of(path.src), clock, AES, duplicate_filter=DuplicateFilter()
    )

    def footprint():
        attributes = set(vars(router))  # first: it materialises the instance dict
        objects = reachable(router, skip=(router.policer, router.duplicate_filter))
        return (
            attributes,
            sum(len(o) for o in objects if isinstance(o, (dict, list, set))),
            router._forwarding_key_prf,
            router._secret_value_prf,
        ), {o for o in objects if isinstance(o, bytes)}

    before, _ = footprint()
    auth_keys = set()
    for index in range(200):
        reservations = grant_full_path(
            topology, path, start=T0 - 5, prf_factory=AES, res_id_base=4 * index
        )
        auth_keys.update(r.auth_key for r in reservations)
        source = HummingbirdSource(src, dst, path, reservations, clock, AES)
        assert router.process(source.build_packet(b"x"), 0).action is Action.FORWARD_PRIORITY
        clock.advance(0.001)

    after, held_bytes = footprint()
    assert after == before
    assert len(auth_keys) == 800 and not held_bytes & auth_keys
    assert router.stats.flyover_forwarded == 200 and not router.stats.drop_reasons


@pytest.mark.parametrize("replaced", ["forwarding_key", "secret_value"])
def test_replacing_an_as_key_is_seen_by_the_next_packet(replaced, chain4_aes, clock):
    topology, path = chain4_aes
    src, dst = addresses(path)
    first = topology.as_of(path.src)
    router = HummingbirdRouter(first, clock, AES)
    old = HummingbirdSource(
        src, dst, path, grant_full_path(topology, path, start=T0 - 5, prf_factory=AES), clock, AES
    )
    assert router.process(old.build_packet(b"x"), 0).action is Action.FORWARD_PRIORITY

    if replaced == "forwarding_key":
        first.forwarding_key = SecretValue.from_seed("rotated forwarding key").key
        topology, path = _rebeacon(topology)
    else:
        first.secret_value = SecretValue.from_seed("rotated secret value")

    # MACed under the old key: the flyover tag or the hop-field MAC is wrong
    stale = router.process(old.build_packet(b"x"), 0)
    assert stale.action is Action.DROP
    assert stale.reason == "hop-field MAC verification failed"
    plain_old = ScionBestEffortSource(src, dst, old.path).build_packet(b"x")
    expected = Action.DROP if replaced == "forwarding_key" else Action.FORWARD
    assert router.process(plain_old, 0).action is expected

    new = HummingbirdSource(
        src, dst, path, grant_full_path(topology, path, start=T0 - 5, prf_factory=AES), clock, AES
    )
    assert router.process(new.build_packet(b"x"), 0).action is Action.FORWARD_PRIORITY
    plain_new = ScionBestEffortSource(src, dst, path).build_packet(b"x")
    assert router.process(plain_new, 0).action is Action.FORWARD


def _rebeacon(topology):
    """Fresh hop-field MACs for ``topology`` as its keys are now."""
    from repro.scion.beaconing import run_beaconing
    from repro.scion.paths import PathLookup

    store = run_beaconing(topology, timestamp=T0, prf_factory=AES)
    path = PathLookup(store).find_paths(topology.ases[-1].isd_as, topology.ases[0].isd_as)[0]
    return topology, path
