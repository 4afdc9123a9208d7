"""Microbenchmarks of our Python data-plane implementation.

Measures the per-packet cost of the same pipeline stages the paper times in
Tables 3 and 4 — on our pure-Python implementation.  The absolute numbers
are of course far from DPDK+AES-NI; what matters is (a) the *structure*
(which stages exist, what scales per hop / per byte) matches, and (b) the
measured Python numbers can be fed into the same
:class:`~repro.perfmodel.scaling.ThroughputModel` to produce
"measured-substrate" versions of Figures 5/14/15 next to the
paper-calibrated ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.clock import SimClock
from repro.crypto.keys import derive_auth_key
from repro.crypto.prf import PrfFactory
from repro.hummingbird.mac import aggregate_mac, compute_flyover_mac
from repro.hummingbird.policing import TokenBucketArray
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.beaconing import run_beaconing
from repro.scion.hopfields import chain_segid, compute_hopfield_mac
from repro.scion.paths import PathLookup, as_crossings
from repro.scion.router import ScionRouter
from repro.scion.topology import linear_topology
from repro.wire import bwcls


def time_op(fn, iterations: int = 2000, warmup: int = 100) -> float:
    """Average nanoseconds per call of ``fn``."""
    for _ in range(warmup):
        fn()
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn()
    return (time.perf_counter_ns() - start) / iterations


def time_op_over(fn, items: list, warmup: int = 20) -> float:
    """Average nanoseconds per call of ``fn(item)`` over distinct items."""
    for item in items[:warmup]:
        fn(item)
    rest = items[warmup:]
    if not rest:
        raise ValueError("not enough items after warmup")
    start = time.perf_counter_ns()
    for item in rest:
        fn(item)
    return (time.perf_counter_ns() - start) / len(rest)


@dataclass
class DataPlaneFixture:
    """A 4-hop path with full flyover coverage, ready to measure."""

    clock: SimClock
    topology: object
    path: object
    reservations: list
    hb_source: HummingbirdSource
    scion_source: ScionBestEffortSource
    hb_router: HummingbirdRouter
    scion_router: ScionRouter
    first_as: IsdAs


def build_fixture(
    hops: int = 4, payload: int = 500, prf_backend: str = "aes"
) -> DataPlaneFixture:
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
        path=path,
        reservations=reservations,
        hb_source=hb_source,
        scion_source=scion_source,
        hb_router=HummingbirdRouter(first, clock, prf_factory),
        scion_router=ScionRouter(first, clock, prf_factory),
        first_as=src_as,
    )


@dataclass
class RouterMeasurement:
    """Our per-packet router costs plus fine-grained operation costs (ns)."""

    scion_process_ns: float
    hummingbird_process_ns: float
    steps: dict = field(default_factory=dict)

    @property
    def hummingbird_overhead_ns(self) -> float:
        return self.hummingbird_process_ns - self.scion_process_ns


def measure_router(
    payload: int = 500, packets: int = 1500, prf_backend: str = "aes"
) -> RouterMeasurement:
    """Time full router processing and the individual pipeline operations."""
    fixture = build_fixture(payload=payload, prf_backend=prf_backend)
    body = bytes(payload)
    hb_packets = [fixture.hb_source.build_packet(body) for _ in range(packets)]
    scion_packets = [fixture.scion_source.build_packet(body) for _ in range(packets)]

    hb_ns = time_op_over(lambda p: fixture.hb_router.process(p, 0), hb_packets)
    scion_ns = time_op_over(lambda p: fixture.scion_router.process(p, 0), scion_packets)

    # The steps as the router runs them: K_i and SV_i PRFs held, A_i keyed
    # per packet.  Disjoint, so their sum is comparable to the hop cost.
    prf_factory = PrfFactory(prf_backend)
    reservation = fixture.reservations[0]
    resinfo = reservation.resinfo
    autonomous_system = fixture.topology.as_of(reservation.isd_as)
    forwarding_key_prf = prf_factory(autonomous_system.forwarding_key)
    secret_value_prf = prf_factory(autonomous_system.secret_value.key)
    auth_key_prf = prf_factory(reservation.auth_key)
    dst = fixture.hb_source.dst.isd_as
    mac_a = compute_flyover_mac(auth_key_prf, dst, 600, 10, 1, 2)
    mac_b = compute_hopfield_mac(forwarding_key_prf, 1, 1_700_000_000, 63, 1, 2)
    bucket = TokenBucketArray(capacity=1024)

    steps = {
        "Recompute SCION hop field MAC": time_op(
            lambda: compute_hopfield_mac(forwarding_key_prf, 7, 1_700_000_000, 63, 1, 2)
        ),
        "Update segment identifier (SegID)": time_op(lambda: chain_segid(7, mac_b)),
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
            lambda: prf_factory(reservation.auth_key)
        ),
        "Recompute flyover MAC": time_op(
            lambda: compute_flyover_mac(auth_key_prf, dst, 600, 10, 1, 2)
        ),
        "Compute aggregate MAC": time_op(lambda: aggregate_mac(mac_a, mac_b)),
        "Check for overuse": time_op(
            lambda: bucket.monitor(3, 1_000_000, 600, 1_700_000_000.0)
        ),
    }
    return RouterMeasurement(
        scion_process_ns=scion_ns, hummingbird_process_ns=hb_ns, steps=steps
    )


@dataclass
class SourceMeasurement:
    """Our per-packet generation costs (ns) for one (hops, payload) point."""

    hops: int
    payload: int
    scion_generation_ns: float
    hummingbird_generation_ns: float
    stages: dict = field(default_factory=dict)


def measure_source(
    hops: int = 4, payload: int = 500, iterations: int = 800, prf_backend: str = "aes"
) -> SourceMeasurement:
    """Time packet generation, full and per stage (the Table 4 pipeline)."""
    fixture = build_fixture(hops=hops, payload=payload, prf_backend=prf_backend)
    body = bytes(payload)
    hb_ns = time_op(lambda: fixture.hb_source.build_packet(body), iterations)
    scion_ns = time_op(lambda: fixture.scion_source.build_packet(body), iterations)

    source = fixture.hb_source
    timestamp = source._allocator.allocate(fixture.clock.now())
    pkt_len = source._begin_headers(body)
    macs = source._compute_flyover_macs(pkt_len, timestamp)
    stages = {
        "Add header fields": time_op(lambda: source._begin_headers(body), iterations),
        "Compute flyover MACs": time_op(
            lambda: source._compute_flyover_macs(pkt_len, timestamp), iterations
        ),
        "Add hop fields": time_op(
            lambda: source._assemble_hopfields(timestamp, macs), iterations
        ),
        "Add payload": time_op(
            lambda: source._attach_payload(
                source._assemble_hopfields(timestamp, macs), body, 1
            ),
            max(iterations // 4, 50),
        ),
    }
    return SourceMeasurement(
        hops=hops,
        payload=payload,
        scion_generation_ns=scion_ns,
        hummingbird_generation_ns=hb_ns,
        stages=stages,
    )
