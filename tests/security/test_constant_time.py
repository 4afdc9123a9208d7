"""Secret-derived MACs and tags meet attacker-chosen bytes only in ``hmac.compare_digest``.

A short-circuiting ``!=`` returns sooner the earlier the first wrong byte
is, which lets a forger learn a hop-field MAC or a sealed box's tag one
byte at a time.  A spy on ``hmac.compare_digest`` shows the forwarding path
and unsealing both go through it.
"""

import hmac
import random

import pytest

from tests.conftest import BLAKE2, T0, addresses, grant_full_path, walk_path

from repro.clock import SimClock
from repro.crypto.sealing import KeyPair, seal, unseal
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource
from repro.scion.router import Action


@pytest.fixture
def compared(monkeypatch):
    """The ``(a, b)`` of every ``hmac.compare_digest`` call from here on."""
    calls = []
    original = hmac.compare_digest

    def spy(a, b):
        calls.append((bytes(a), bytes(b)))
        return original(a, b)

    monkeypatch.setattr(hmac, "compare_digest", spy)
    return calls


def test_every_hop_mac_check_is_constant_time(chain3, compared):
    topology, path = chain3
    clock = SimClock(float(T0))
    routers = {a.isd_as: HummingbirdRouter(a, clock, BLAKE2) for a in topology.ases}
    src, dst = addresses(path)
    source = HummingbirdSource(
        src, dst, path, grant_full_path(topology, path, start=T0 - 5), clock, BLAKE2
    )
    decisions = walk_path(topology, routers, source.build_packet(b"x" * 64), path.src)
    assert decisions[-1].action is Action.DELIVER
    assert len(compared) == len(decisions)
    assert all(len(a) == len(b) == 6 for a, b in compared)


def test_unsealing_compares_the_tag_in_constant_time(compared):
    rng = random.Random(7)
    recipient = KeyPair.generate(rng)
    box = seal(recipient.public, b"reservation", rng)
    assert unseal(recipient, box) == b"reservation"
    assert compared == [(box.tag, box.tag)]
    forged = type(box)(box.kem_share, box.ciphertext, bytes(16))
    with pytest.raises(ValueError):
        unseal(recipient, forged)
    assert compared[-1] == (box.tag, bytes(16))
