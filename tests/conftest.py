"""Shared fixtures: clocks, topologies, paths, reservations, deployments."""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import gc
import sys

import pytest

from repro import reclaim
from repro.clock import SimClock
from repro.crypto.prf import PrfFactory
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.netsim.scenarios import linear_path
from repro.reclaim import AdaptiveOverbooking
from repro.scion.addresses import HostAddr, ScionAddr
from repro.scion.paths import as_crossings
from repro.wire import bwcls

BLAKE2 = PrfFactory("blake2")
T0 = 1_700_000_000


class EagerOverbooking(AdaptiveOverbooking):
    """Adaptive overbooking that bets 1.5x before any evidence: the seam a
    test takes for a direction that starts overbooked."""

    INITIAL_FACTOR = 1.5


@contextlib.contextmanager
def reclaiming_at(**settings):
    """Reclamation runs at other ``repro.reclaim`` settings inside the block
    than everywhere else: a deployment made in it arms its loops at its
    ``GRACE_SECONDS``, and an engine scanning in it
    judges by its ``NO_SHOW_THRESHOLD`` / ``RETAIN_HEADROOM`` /
    ``MIN_RETAINED_KBPS``.  The seam to a value no caller varies."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in settings.items():
            patch.setattr(reclaim, name, value)
        yield


@pytest.fixture
def clock():
    return SimClock(float(T0))


@pytest.fixture
def chain3():
    """(topology, path) for a 3-AS chain, BLAKE2 MACs."""
    return linear_path(3, prf_factory=BLAKE2)


@pytest.fixture
def chain5():
    return linear_path(5, prf_factory=BLAKE2)


@pytest.fixture
def aes_calls(monkeypatch):
    """Counts of C-level AES key expansions (``expand_key``) and block
    encryptions (``encrypt_block``) from here on, however they are reached:
    every loaded ``repro`` module's binding of ``AES_set_encrypt_key`` or
    ``AES_encrypt`` is replaced by a counting one."""
    from repro.crypto import aes

    counts = {"expand_key": 0, "encrypt_block": 0}
    natives = {"expand_key": aes._set_encrypt_key, "encrypt_block": aes._encrypt}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro."):
            for attribute, value in list(vars(module).items()):
                for name, native in natives.items():
                    if value is native:
                        monkeypatch.setattr(module, attribute, counting(name, native))
    return counts


@pytest.fixture
def pow_calls(monkeypatch):
    """``(base, exponent, result)`` of every variable-base exponentiation
    :mod:`repro.crypto.sealing` runs from here on (its ``pow`` looked up
    through the module global; the fixed-base comb under ``g^x`` is not one)."""
    from repro.crypto import sealing

    calls = []

    def counting(base, exponent, modulus):
        result = builtins.pow(base, exponent, modulus)
        calls.append((base, exponent, result))
        return result

    monkeypatch.setattr(sealing, "pow", counting, raising=False)
    return calls


def reachable(root, skip=()) -> list:
    """Objects reachable from ``root`` through containers and ``repro`` instances."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or any(obj is s for s in skip):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (dict, list, tuple, set)) or type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return found


def grant_full_path(
    topology,
    path,
    start: int,
    duration: int = 3600,
    bandwidth_kbps: int = 10_000,
    prf_factory: PrfFactory = BLAKE2,
    res_id_base: int = 0,
):
    """Grant a reservation at every AS crossing of ``path``."""
    reservations = []
    for index, crossing in enumerate(as_crossings(path)):
        resinfo = ResInfo(
            ingress=crossing.ingress,
            egress=crossing.egress,
            res_id=res_id_base + index,
            bw_cls=bwcls.encode_ceil(bandwidth_kbps),
            start=start,
            duration=duration,
        )
        reservations.append(
            grant_reservation(
                crossing.isd_as,
                topology.as_of(crossing.isd_as).secret_value,
                resinfo,
                prf_factory,
            )
        )
    return reservations


def flyover_count(path) -> int:
    """Flyover hop fields on a packet path."""
    from repro.hummingbird.pathtype import is_flyover

    return sum(is_flyover(hop) for segment in path.segments for hop in segment.hopfields)


def replace_hop(path, seg_index: int, local: int, **changes) -> None:
    """Forge one hop field of a packet's ``path``: plain hop fields and the
    segments are frozen and shared with every packet of the source, so the
    packet gets a segment of its own, with a changed copy of that hop."""
    segment = path.segments[seg_index]
    hops = list(segment.hopfields)
    hops[local] = dataclasses.replace(hops[local], **changes)
    path.segments[seg_index] = dataclasses.replace(segment, hopfields=tuple(hops))


def addresses(path):
    return (
        ScionAddr(path.src, HostAddr.from_string("10.0.0.1")),
        ScionAddr(path.dst, HostAddr.from_string("10.0.0.2")),
    )


def walk_path(topology, routers, packet, start_as, max_hops: int = 32):
    """Drive a packet through per-AS routers; returns the decision list."""
    from repro.scion.router import Action

    decisions = []
    current, ingress = start_as, 0
    for _ in range(max_hops):
        decision = routers[current].process(packet, ingress)
        decisions.append(decision)
        if decision.action in (Action.DELIVER, Action.DROP):
            return decisions
        interface = topology.as_of(current).interfaces[decision.egress_ifid]
        current, ingress = interface.neighbor, interface.neighbor_ifid
    raise AssertionError("packet did not terminate")


@pytest.fixture(scope="session")
def deployment3():
    """A session-scoped market deployment over a 3-AS chain (AES keys)."""
    from repro.controlplane import deploy_market
    from repro.scion.topology import linear_topology

    clock = SimClock(float(T0))
    topology = linear_topology(3)
    return deploy_market(topology, clock=clock)
