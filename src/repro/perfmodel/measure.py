"""Microbenchmarks of our Python data-plane implementation.

Measures the per-packet cost of the same pipeline stages the paper times in
Tables 3 and 4 — on our Python implementation, whose AES block cipher is the
interpreter's own OpenSSL called through :mod:`ctypes`.  The absolute
numbers are of course far from DPDK+AES-NI: every step is at least one
Python call, and a call costs more than the paper's whole step.  What
matters is that the *structure* (which stages exist, what scales per hop /
per byte) matches: ``tools/paper_scoreboard.py`` sets these numbers beside
the paper's in ``docs/reproduction.md`` through ratios that survive the gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import fmean, median

from repro.clock import SimClock
from repro.crypto.keys import derive_auth_key
from repro.crypto.prf import PrfFactory
from repro.hummingbird.mac import TAG_LEN, compute_flyover_mac
from repro.hummingbird.policing import KBPS_OF_CLASS, PerInterfacePolicer
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.scion.addresses import HostAddr, ScionAddr
from repro.scion.beaconing import run_beaconing
from repro.scion.hopfields import HOP_MAC_LEN, HOPFIELD_MAC_INPUT, compute_hopfield_mac
from repro.scion.paths import PathLookup, as_crossings
from repro.scion.router import ScionRouter
from repro.scion.topology import linear_topology
from repro.wire import bwcls

WARMUP_CALLS = 100  # untimed calls before time_op starts its clock
WARMUP_ITEMS = 20  # untimed items before time_op_over starts its clock
ROUTER_PAYLOAD = 500  # bytes in every packet measure_router times
ROUTER_PACKETS = 800  # fresh packets each of measure_router's hop readings times
ROUNDS = 5  # readings alternating takes of each measure


def time_op(fn, iterations: int = 2000) -> float:
    """Average nanoseconds per call of ``fn``, after :data:`WARMUP_CALLS`
    untimed ones."""
    for _ in range(WARMUP_CALLS):
        fn()
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn()
    return (time.perf_counter_ns() - start) / iterations


def alternating(*measures) -> list[list]:
    """:data:`ROUNDS` readings of each measure in turn, the order reversed
    every other round (A B, B A, ...): drift over the run hits all alike."""
    readings, order = [[] for _ in measures], list(range(len(measures)))
    for _ in range(ROUNDS):
        for index in order:
            readings[index].append(measures[index]())
        order.reverse()
    return readings


def time_op_over(fn, items: list) -> float:
    """Average nanoseconds per call of ``fn(item)`` over distinct items, the
    first :data:`WARMUP_ITEMS` untimed."""
    for item in items[:WARMUP_ITEMS]:
        fn(item)
    rest = items[WARMUP_ITEMS:]
    if not rest:
        raise ValueError("not enough items after warmup")
    start = time.perf_counter_ns()
    for item in rest:
        fn(item)
    return (time.perf_counter_ns() - start) / len(rest)


@dataclass
class DataPlaneFixture:
    """A path of ``hops`` ASes with a flyover at every hop, ready to measure."""

    clock: SimClock
    topology: object
    reservations: list
    hb_source: HummingbirdSource
    scion_source: ScionBestEffortSource
    hb_router: HummingbirdRouter
    scion_router: ScionRouter


def build_fixture(hops: int = 4, prf_backend: str = "aes") -> DataPlaneFixture:
    prf_factory = PrfFactory(prf_backend)
    clock = SimClock(1_700_000_000.0)
    topology = linear_topology(hops)
    store = run_beaconing(topology, timestamp=int(clock.now()), prf_factory=prf_factory)
    src_as = topology.ases[-1].isd_as
    dst_as = topology.ases[0].isd_as
    path = PathLookup(store).find_paths(src_as, dst_as)[0]
    reservations = []
    start = int(clock.now()) - 10
    for index, crossing in enumerate(as_crossings(path)):
        autonomous_system = topology.as_of(crossing.isd_as)
        resinfo = ResInfo(
            ingress=crossing.ingress,
            egress=crossing.egress,
            res_id=index,
            bw_cls=bwcls.MAX_CLASS,  # effectively unlimited: no overuse demotions
            start=start,
            duration=36_000,
        )
        reservations.append(
            grant_reservation(
                crossing.isd_as, autonomous_system.secret_value, resinfo, prf_factory
            )
        )
    src = ScionAddr(src_as, HostAddr.from_string("10.0.0.1"))
    dst = ScionAddr(dst_as, HostAddr.from_string("10.0.0.2"))
    hb_source = HummingbirdSource(src, dst, path, reservations, clock, prf_factory)
    scion_source = ScionBestEffortSource(src, dst, path)
    first = topology.as_of(src_as)
    return DataPlaneFixture(
        clock=clock,
        topology=topology,
        reservations=reservations,
        hb_source=hb_source,
        scion_source=scion_source,
        hb_router=HummingbirdRouter(first, clock, prf_factory),
        scion_router=ScionRouter(first, clock, prf_factory),
    )


@dataclass
class RouterMeasurement:
    """Our per-packet router costs plus fine-grained operation costs (ns)."""

    scion_process_ns: float
    hummingbird_process_ns: float
    steps: dict

    @property
    def hummingbird_overhead_ns(self) -> float:
        return self.hummingbird_process_ns - self.scion_process_ns


def measure_router() -> RouterMeasurement:
    """Time full router processing of :data:`ROUTER_PAYLOAD`-byte packets and
    the individual pipeline operations, at the paper's AES PRF.

    The two hops are timed :func:`alternating`, each reading over its own
    :data:`ROUTER_PACKETS` fresh packets, so neither side is always first."""
    fixture = build_fixture()
    body = bytes(ROUTER_PAYLOAD)

    def hop(source, router):
        def measure() -> float:
            batch = [source.build_packet(body) for _ in range(ROUTER_PACKETS)]
            return time_op_over(lambda p: router.process(p, 0), batch)

        return measure

    hb_ns, scion_ns = map(fmean, alternating(
        hop(fixture.hb_source, fixture.hb_router), hop(fixture.scion_source, fixture.scion_router)
    ))

    # The steps as the router runs them: K_i and SV_i PRFs held, A_i keyed
    # per packet through the backend's class, and what the router writes out
    # rather than calls (the hop-field MAC's pack, SegID chaining, Eq. 6's
    # XOR) written out here too.  Disjoint, so their sum is comparable to
    # the hop cost.
    prf_factory = PrfFactory("aes")
    reservation = fixture.reservations[0]
    resinfo = reservation.resinfo
    autonomous_system = fixture.topology.as_of(reservation.isd_as)
    forwarding_key_prf = prf_factory(autonomous_system.forwarding_key)
    secret_value_prf = prf_factory(autonomous_system.secret_value.key)
    auth_key_prf = prf_factory(reservation.auth_key)
    dst = fixture.hb_source.dst.isd_as
    mac_a = compute_flyover_mac(auth_key_prf, dst, 600, 10, 1, 2)
    mac_b = compute_hopfield_mac(forwarding_key_prf, 1, 1_700_000_000, 63, 1, 2)
    policer = PerInterfacePolicer(capacity=1024)
    policer.array_for(1)  # the router looks an existing array up
    from_bytes = int.from_bytes

    steps = {
        "Recompute SCION hop field MAC": time_op(
            lambda: forwarding_key_prf.compute(
                HOPFIELD_MAC_INPUT.pack(7, 1_700_000_000, 63, 1, 2)
            )[:HOP_MAC_LEN]
        ),
        "Update segment identifier (SegID)": time_op(lambda: 7 ^ (mac_b[0] << 8 | mac_b[1])),
        "Compute authentication key (A_i)": time_op(
            lambda: derive_auth_key(
                secret_value_prf,
                resinfo.ingress,
                resinfo.egress,
                resinfo.res_id,
                resinfo.bw_cls,
                resinfo.start,
                resinfo.duration,
            )
        ),
        "AES-extend authentication key (A_i)": time_op(
            lambda: prf_factory.prf_type(reservation.auth_key)
        ),
        "Recompute flyover MAC": time_op(
            lambda: compute_flyover_mac(auth_key_prf, dst, 600, 10, 1, 2)
        ),
        "Compute aggregate MAC": time_op(
            lambda: (from_bytes(mac_b, "big") ^ from_bytes(mac_a, "big")).to_bytes(TAG_LEN, "big")
        ),
        "Check for overuse": time_op(
            lambda: policer.arrays.get(1).monitor(
                3, KBPS_OF_CLASS[bwcls.MAX_CLASS], 600, 1_700_000_000.0, 1_699_999_000
            )
        ),
    }
    return RouterMeasurement(
        scion_process_ns=scion_ns, hummingbird_process_ns=hb_ns, steps=steps
    )


@dataclass
class SourceMeasurement:
    """Our per-packet generation costs (ns) for one (hops, payload) point."""

    scion_generation_ns: float
    hummingbird_generation_ns: float
    stages: dict
    # median over rounds of the round's four stages ÷ its Hummingbird generation
    staged_share: float


def measure_source(
    hops: int = 4, payload: int = 500, iterations: int = 800
) -> SourceMeasurement:
    """Time packet generation, full and per stage (the Table 4 pipeline), at
    the paper's AES PRF.

    The two generations and the four stages are timed in the same
    :func:`alternating` rounds, ``iterations`` calls a reading, so no side
    is always first and a slow window hits the stages as it hits the
    generations.  Each cost is the median of its readings, so one
    descheduled reading does not move it; the stages' share of the
    generation is taken round by round, each round's stages against that
    round's generation, so a box that changes speed between rounds cannot
    pair stages timed slow with a generation timed fast."""
    fixture = build_fixture(hops=hops)
    body = bytes(payload)
    source = fixture.hb_source
    timestamp = source._allocator.allocate(fixture.clock.now())
    pkt_len = source._begin_headers(body)
    macs = source._compute_flyover_macs(pkt_len, timestamp)
    path = source._assemble_hopfields(timestamp, macs)
    # Each stage on the previous stage's output, so the four are disjoint
    # and their sum is comparable to the whole generation.
    stages = {
        "Add header fields": lambda: source._begin_headers(body),
        "Compute flyover MACs": lambda: source._compute_flyover_macs(pkt_len, timestamp),
        "Add hop fields": lambda: source._assemble_hopfields(timestamp, macs),
        "Add payload": lambda: source._attach_payload(path, body, 1),
    }

    def reading(op):
        return lambda: time_op(op, iterations)

    hb_ns, scion_ns, *stage_ns = alternating(
        reading(lambda: source.build_packet(body)),
        reading(lambda: fixture.scion_source.build_packet(body)),
        *map(reading, stages.values()),
    )
    return SourceMeasurement(
        scion_generation_ns=median(scion_ns),
        hummingbird_generation_ns=median(hb_ns),
        stages=dict(zip(stages, map(median, stage_ns))),
        staged_share=median(sum(parts) / whole for whole, *parts in zip(hb_ns, *stage_ns)),
    )
