"""The data plane decides exactly what it decided before the PRFs were held.

``run_scenario`` drives seeded traffic — valid, tampered-AggMAC,
wrong-destination, stale, not-yet-active, expired, over-rate, replayed and
``PktLen``-overflow packets — through four routers, then replays every
data-plane case of ``tests/security/test_attacks.py``.  What it returns
(each packet's action sequence and final drop reason, every router's
``RouterStats``, every ``TokenBucketArray``'s non-zero buckets) was recorded
at the commit *before* routers and sources held keyed PRFs and is committed
beside this file; the test requires today's code to reproduce it.  No decision
depends on which PRF computed the MACs, so one recording (made with AES)
serves both backends.

``boundary_cases`` adds the segment-boundary rule (A.5), which a one-segment
chain never reaches: leaf to leaf over a core mesh (up + core + down), every
branch taken at a boundary AS, and the SHA-256 of every packet's wire bytes
as built.  The bytes carry the PRF's MACs, so this part is recorded once per
backend; it was recorded before routers went over a hop once and sources
built from a header template.

To re-record (only when a decision is *meant* to change)::

    PYTHONPATH=src:. python tests/hummingbird/test_decision_equivalence.py
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import pathlib
import random
import re
from copy import deepcopy

import pytest

from tests.conftest import T0, addresses, grant_full_path, walk_path

from repro.clock import SimClock
from repro.crypto.keys import SecretValue
from repro.crypto.prf import PrfFactory
from repro.hummingbird.duplicate import DuplicateFilter
from repro.hummingbird.pathtype import is_flyover
from repro.hummingbird.reservation import FlyoverReservation, ResInfo, grant_reservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.netsim.scenarios import linear_path
from repro.scion.addresses import IsdAs, ScionAddr
from repro.scion.beaconing import run_beaconing
from repro.scion.packet import encode_packet
from repro.scion.paths import PathLookup, as_crossings
from repro.scion.topology import core_mesh_topology

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "decision_equivalence.json"
BACKENDS = ("aes", "blake2")
SEED = 1510
KINDS = (
    "valid", "valid", "valid", "tampered", "wrong_dst", "stale", "replay",
    "overflow", "burst", "short_valid",
)


class AheadClock:
    """A host clock running ``lead`` seconds ahead of the routers' clock."""

    def __init__(self, base: SimClock, lead: float) -> None:
        self.base, self.lead = base, lead

    def now(self) -> float:
        return self.base.now() + self.lead


def _outcome(decisions) -> list:
    """The last decision's reason, then every action: one flat list."""
    return [decisions[-1].reason, *(d.action.value for d in decisions)]


def _router_state(routers: dict) -> dict:
    state = {}
    for isd_as, router in routers.items():
        buckets = {}
        for ingress, array in sorted(router.policer.arrays.items()):
            used = collections.Counter()  # a ResID's bytes over its reservations
            for (res_id, _), count in array.usage_snapshot().items():
                used[res_id] += count
            buckets[str(ingress)] = {
                str(res_id): [int(array._timestamps[res_id]), used[res_id]]
                for res_id in range(len(array._timestamps))
                if array._timestamps[res_id] or used[res_id]
            }
        state[str(isd_as)] = {
            "stats": dataclasses.asdict(router.stats),
            "buckets": buckets,
        }
    return state


def mixed_traffic(backend: str) -> dict:
    """Seeded traffic of every kind over a fully reserved 4-hop path."""
    prf = PrfFactory(backend)
    rng = random.Random(SEED)
    clock = SimClock(float(T0))
    topology, path = linear_path(4, prf_factory=prf)
    src, dst = addresses(path)
    routers = {
        autonomous_system.isd_as: HummingbirdRouter(
            autonomous_system, clock, prf,
            duplicate_filter=DuplicateFilter() if index % 2 else None,
        )
        for index, autonomous_system in enumerate(topology.ases)
    }

    def reserve(start, duration, res_id_base):
        return grant_full_path(
            topology, path, start=start, duration=duration, bandwidth_kbps=2_000,
            prf_factory=prf, res_id_base=res_id_base,
        )

    main_reservations = reserve(T0 - 5, 3_600, 0)
    short_reservations = reserve(T0 - 5, 100, 10)  # ends at T0+95
    main = HummingbirdSource(src, dst, path, main_reservations, clock, prf)
    short = HummingbirdSource(src, dst, path, short_reservations, clock, prf)
    packets: list = []
    sent: list = []  # pristine copies of valid packets, for replays

    def walk(kind, packet):
        packets.append([kind, *_outcome(walk_path(topology, routers, packet, path.src))])

    def send(kind):
        payload = bytes(rng.choice((64, 300, 1_000)))
        if kind == "burst":  # no clock advance: far above the reserved rate
            for _ in range(16):
                walk(kind, main.build_packet(bytes(1_000)))
            return
        if kind == "replay" and sent:
            walk(kind, deepcopy(rng.choice(sent)))
            return
        packet = (short if kind == "short_valid" else main).build_packet(payload)
        if kind == "tampered":
            flyovers = [h for s in packet.path.segments for h in s.hopfields if is_flyover(h)]
            hop = rng.choice(flyovers)
            position = rng.randrange(len(hop.mac))
            flipped = hop.mac[position] ^ (1 << rng.randrange(8))
            hop.mac = hop.mac[:position] + bytes([flipped]) + hop.mac[position + 1 :]
        elif kind == "wrong_dst":
            packet.dst = ScionAddr(IsdAs(1, 999), packet.dst.host)
        elif kind == "stale":
            clock.advance(2.0)  # > max packet age + clock skew
        elif kind == "overflow":
            packet.payload = bytes(65_535)
        elif kind == "valid":
            sent.append(deepcopy(packet))
        walk(kind, packet)

    for _ in range(220):  # both reservations active; ends near T0+50
        clock.advance(rng.uniform(0.0, 0.08))
        send(rng.choice(KINDS))
    clock.set(T0 + 101.0)  # the short reservations have ended
    main = HummingbirdSource(src, dst, path, main_reservations, clock, prf)
    short = HummingbirdSource(src, dst, path, short_reservations, clock, prf)
    for _ in range(8):
        clock.advance(0.05)
        send(rng.choice(("short_valid", "valid", "replay")))
    # Not yet active: the host's clock leads the routers' by less than the
    # tolerated skew, so the packet is fresh but the reservation has not begun.
    clock.set(T0 + 199.7)
    early = HummingbirdSource(
        src, dst, path, reserve(T0 + 200, 600, 20), AheadClock(clock, 0.4), prf
    )
    for _ in range(5):
        clock.advance(0.02)
        walk("not_yet_active", early.build_packet(bytes(200)))
    clock.set(T0 + 200.5)
    for _ in range(5):
        clock.advance(0.02)
        walk("now_active", early.build_packet(bytes(200)))
    return {"packets": packets, "routers": _router_state(routers)}


def attack_cases(backend: str) -> dict:
    """The data-plane rows of ``tests/security/test_attacks.py``, outcomes only."""
    prf = PrfFactory(backend)
    topology, path = linear_path(3, prf_factory=prf)
    src, dst = addresses(path)
    results = {}

    def case(name, reservations, mutate=None, now=float(T0), duplicate_filter=None):
        clock = SimClock(now)
        source = HummingbirdSource(src, dst, path, reservations, clock, prf)
        router = HummingbirdRouter(
            topology.as_of(path.src), clock, prf, duplicate_filter=duplicate_filter
        )
        packet = source.build_packet(b"y" * 500)
        if mutate is not None:
            mutate(packet)
        results[name] = _outcome([router.process(packet, 0)])
        return source, router

    def relabel(reservations, **changes):
        return [
            FlyoverReservation(
                isd_as=r.isd_as,
                resinfo=dataclasses.replace(r.resinfo, **changes),
                auth_key=r.auth_key,
            )
            for r in reservations
        ]

    def granted(**kwargs):
        kwargs.setdefault("start", T0 - 5)
        return grant_full_path(topology, path, prf_factory=prf, **kwargs)

    forged = [
        grant_reservation(
            crossing.isd_as,
            SecretValue.from_seed("attacker guess"),
            ResInfo(
                ingress=crossing.ingress, egress=crossing.egress, res_id=7,
                bw_cls=500, start=T0 - 5, duration=600,
            ),
            prf,
        )
        for crossing in as_crossings(path)
    ]
    case("spoofed_reservation", forged)
    case("pre_start_lie", relabel(granted(start=T0 + 500), start=T0 - 1))
    case("post_expiry", granted(start=T0, duration=60), now=float(T0 + 61))
    case("inflated_bandwidth", relabel(granted(bandwidth_kbps=1_000), bw_cls=1023))

    def shrink(packet):
        packet.payload = packet.payload[:100]

    def redirect(packet):
        packet.dst = ScionAddr(IsdAs(1, 999), packet.dst.host)

    def flip(packet):
        hop = packet.path.segments[0].hopfields[0]
        hop.mac = bytes(b ^ 1 for b in hop.mac)

    case("shrunk_payload", granted(), shrink)
    case("stolen_to_other_dst", granted(), redirect)
    case("wrong_tag", granted(), flip)

    for name, duplicate_filter in (
        ("replay_drains_bucket", None),
        ("replay_suppressed", DuplicateFilter()),
    ):
        source, router = case(
            name, granted(bandwidth_kbps=1_000), duplicate_filter=duplicate_filter
        )
        observed = source.build_packet(b"v" * 400)
        replays = [router.process(deepcopy(observed), 0) for _ in range(26)]
        victim_next = router.process(source.build_packet(b"v" * 400), 0)
        other_path = HummingbirdSource(
            src, dst, path, granted(bandwidth_kbps=1_000, res_id_base=10), source.clock, prf
        )
        isolated = router.process(other_path.build_packet(b"v" * 400), 0)
        results[name + ".after"] = _outcome([*replays, victim_next, isolated])
        results[name + ".router"] = _router_state({path.src: router})
    return results


def boundary_cases(backend: str) -> dict:
    """Every branch at the two segment-boundary ASes of an up + core + down path.

    Both core ASes hold two hop fields of the path, the flyover on the first
    (A.5); each row is a packet's outcome and the hash of its bytes as built.
    """
    prf = PrfFactory(backend)
    clock = SimClock(float(T0))
    topology = core_mesh_topology(2, 1)
    store = run_beaconing(topology, timestamp=T0, prf_factory=prf)
    leaves = [a.isd_as for a in topology.ases if not a.is_core]
    path = PathLookup(store).find_paths(leaves[0], leaves[1])[0]
    src, dst = addresses(path)
    boundaries = [c for c in as_crossings(path) if len(c.positions) == 2]
    assert len(path.segments) == 3 and len(boundaries) == 2
    boundary_ases = {c.isd_as for c in boundaries}
    routers = {
        autonomous_system.isd_as: HummingbirdRouter(
            autonomous_system, clock, prf,
            duplicate_filter=(
                DuplicateFilter() if autonomous_system.isd_as in boundary_ases else None
            ),
        )
        for autonomous_system in topology.ases
    }
    full = grant_full_path(
        topology, path, start=T0 - 5, bandwidth_kbps=2_000, prf_factory=prf
    )
    sources = {
        "full": HummingbirdSource(src, dst, path, full, clock, prf),
        "ends": HummingbirdSource(
            src, dst, path, [r for r in full if r.isd_as not in boundary_ases], clock, prf
        ),
        "boundaries": HummingbirdSource(
            src, dst, path, [r for r in full if r.isd_as in boundary_ases], clock, prf
        ),
        "scion": ScionBestEffortSource(src, dst, path),
    }
    packets: list = []

    def flyover(packet, crossing):
        seg_index, hf_index = crossing.positions[0]
        return packet.path.segments[seg_index].hopfields[hf_index]

    def send(kind, source="full", built=None, at=None, before=None):
        """Walk a packet; ``before(packet, ingress)`` runs ahead of the
        boundary AS ``at`` and returns the ingress it is handed on."""
        clock.advance(0.01)
        packet = sources[source].build_packet(bytes(300)) if built is None else built
        digest = hashlib.sha256(encode_packet(packet)).hexdigest()
        if kind == "stale":
            clock.advance(2.0)  # > max packet age + clock skew
        elif kind == "overflow":
            packet.payload = bytes(65_535)
        decisions = []
        current, ingress = path.src, 0
        while True:
            if at is not None and current == at.isd_as:
                ingress = before(packet, ingress)
            decisions.append(routers[current].process(packet, ingress))
            if not decisions[-1].forwarded:
                break
            interface = topology.as_of(current).interfaces[decisions[-1].egress_ifid]
            current, ingress = interface.neighbor, interface.neighbor_ifid
        packets.append([kind, *_outcome(decisions), digest])

    def tamper(crossing):
        def before(packet, ingress):
            hop = flyover(packet, crossing)
            hop.mac = bytes([hop.mac[0] ^ 0x10]) + hop.mac[1:]
            return ingress

        return before

    def wrong_ingress(crossing):
        other = min(set(topology.as_of(crossing.isd_as).interfaces) - {crossing.ingress})
        return lambda packet, ingress: other

    def next_info_field(packet, ingress):
        packet.path.curr_inf += 1
        return ingress

    send("valid")
    send("valid")
    send("stale")
    send("plain_boundary", source="ends")
    send("overflow", source="boundaries")
    send("scion_plain", source="scion")
    for index, crossing in enumerate(boundaries):
        send(f"tampered@{index}", at=crossing, before=tamper(crossing))
        send(f"wrong_ingress@{index}", at=crossing, before=wrong_ingress(crossing))
        send(f"curr_inf@{index}", at=crossing, before=next_info_field)
    clock.advance(0.01)
    original = sources["full"].build_packet(bytes(300))
    replay = deepcopy(original)
    send("replayed_original", built=original)
    send("replay", built=replay)
    return {"packets": packets, "routers": _router_state(routers)}


def run_scenario(backend: str) -> dict:
    scenario = {"mixed": mixed_traffic(backend), "attacks": attack_cases(backend)}
    return json.loads(json.dumps(scenario))  # tuples and int keys as JSON has them


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
def test_decisions_stats_and_buckets_match_the_recording(recorded, backend):
    replayed = run_scenario(backend)
    for part in ("packets", "routers"):
        assert replayed["mixed"][part] == recorded["mixed"][part]
    assert replayed["attacks"] == recorded["attacks"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_boundary_decisions_and_packet_bytes_match_the_recording(recorded, backend):
    """Recorded per backend: the hop-field MACs, and so the bytes, are the PRF's."""
    replayed = json.loads(json.dumps(boundary_cases(backend)))
    assert replayed == recorded["boundary"][backend]


def test_the_recording_covers_every_kind_and_every_verdict(recorded):
    """A recording in which nothing was ever demoted would pin nothing."""
    mixed = recorded["mixed"]
    assert {packet[0] for packet in mixed["packets"]} == {
        *KINDS, "not_yet_active", "now_active"
    }
    totals: dict = {}
    for router in mixed["routers"].values():
        for name, value in router["stats"].items():
            if name != "drop_reasons":
                totals[name] = totals.get(name, 0) + value
    assert all(totals.values()), totals
    reasons = {packet[1] for packet in mixed["packets"]}
    assert reasons >= {"PktLen overflow", "hop-field MAC verification failed"}


if __name__ == "__main__":
    scenario = run_scenario("aes")
    scenario["boundary"] = {backend: boundary_cases(backend) for backend in BACKENDS}
    text = json.dumps(scenario, indent=1, sort_keys=True)
    # one line per packet / bucket: leaf lists are collapsed
    text = re.sub(r"\[[^\[\]{}]*\]", lambda leaf: re.sub(r"\s+", " ", leaf.group(0)), text)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text + "\n")
    print(f"recorded {FIXTURE}")
