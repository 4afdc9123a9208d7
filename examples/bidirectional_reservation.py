#!/usr/bin/env python3
"""Bidirectional reservations (Appendix C): client pays for both directions.

A client wants QoS for a video call: traffic must be protected client →
server *and* server → client.  Reservations are unidirectional, but the
control plane is identity-free, so the client simply:

1. buys reservations for the forward path (client → server);
2. buys reservations for the reverse path (server → client) — billed to
   the client, usable by the server;
3. sends its request with priority; the server, which holds no reservation
   yet, answers once best effort by reversing the delivered packet's path
   (Appendix A.8);
4. hands the reverse reservations to the server, each sealed to its key;
5. both sides send prioritized traffic.

Run:  python examples/bidirectional_reservation.py
"""

import random

from repro.clock import SimClock
from repro.controlplane import deploy_market, purchase_path
from repro.crypto.sealing import KeyPair, seal, unseal
from repro.hummingbird import (
    FlyoverReservation,
    HummingbirdRouter,
    HummingbirdSource,
    reverse_path,
    to_standard_path,
)
from repro.scion import (
    HostAddr,
    PathLookup,
    ScionAddr,
    as_crossings,
    linear_topology,
    run_beaconing,
)
from repro.scion.packet import ScionPacket
from repro.scion.router import Action


def walk(topology, routers, packet, start_as):
    current, ingress = start_as, 0
    actions = []
    while True:
        decision = routers[current].process(packet, ingress)
        actions.append(decision.action)
        if decision.action in (Action.DELIVER, Action.DROP):
            return actions
        interface = topology.as_of(current).interfaces[decision.egress_ifid]
        current, ingress = interface.neighbor, interface.neighbor_ifid


def main() -> None:
    clock = SimClock(1_700_000_000.0)
    topology = linear_topology(4)
    deployment = deploy_market(topology, clock=clock)
    store = run_beaconing(topology, timestamp=int(clock.now()))
    lookup = PathLookup(store)

    client_as = topology.ases[-1].isd_as
    server_as = topology.ases[0].isd_as
    forward_path = lookup.find_paths(client_as, server_as)[0]
    backward_path = lookup.find_paths(server_as, client_as)[0]

    client = deployment.new_host(funding_sui=100, name="client")
    start = int(clock.now()) + 60
    forward = purchase_path(
        deployment, client, as_crossings(forward_path), start, start + 600, 4_000
    )
    backward = purchase_path(
        deployment, client, as_crossings(backward_path), start, start + 600, 4_000
    )
    print(
        f"client bought {len(forward.reservations)} forward + "
        f"{len(backward.reservations)} reverse reservations "
        f"(both billed to the client)"
    )

    clock.set(start + 1)
    routers = {a.isd_as: HummingbirdRouter(a, clock) for a in topology.ases}
    client_addr = ScionAddr(client_as, HostAddr.from_string("10.0.0.1"))
    server_addr = ScionAddr(server_as, HostAddr.from_string("10.0.0.2"))
    up = HummingbirdSource(client_addr, server_addr, forward_path,
                           forward.reservations, clock)

    # The request flows with priority; the server answers it once, best
    # effort, over the reversed path the request arrived on (A.8).
    request = up.build_packet(b"request " * 50)
    up_actions = walk(topology, routers, request, client_as)
    answer = ScionPacket(src=server_addr, dst=client_addr, payload=b"ack",
                         path=to_standard_path(reverse_path(request.path)))
    answer_actions = walk(topology, routers, answer, server_as)
    print(
        f"client->server: {[a.value for a in up_actions]}\n"
        f"server->client (reversed path, best effort): {[a.value for a in answer_actions]}"
    )
    assert all(a in (Action.FORWARD_PRIORITY, Action.DELIVER) for a in up_actions)
    assert answer_actions[-1] is Action.DELIVER
    assert Action.FORWARD_PRIORITY not in answer_actions

    # Hand the reverse reservations to the server, each record sealed to
    # its keypair the way an AS delivers one.
    rng = random.Random(99)
    server_keys = KeyPair.generate(rng)
    boxes = [seal(server_keys.public, r.to_bytes(), rng) for r in backward.reservations]
    server_reservations = [
        FlyoverReservation.from_bytes(unseal(server_keys, box)) for box in boxes
    ]
    print(f"server decrypted {len(server_reservations)} reverse reservations")

    # Now the server's direction flows with priority too.
    down = HummingbirdSource(server_addr, client_addr, backward_path,
                             server_reservations, clock)
    down_actions = walk(topology, routers, down.build_packet(b"reply " * 100), server_as)
    print(f"server->client (handed-off reservations): {[a.value for a in down_actions]}")
    assert all(a in (Action.FORWARD_PRIORITY, Action.DELIVER) for a in down_actions)
    print("bidirectional QoS established; both directions prioritized")


if __name__ == "__main__":
    main()
