"""A simulated packet is charged the wire size it has.

``CbrSource`` measures one probe packet at construction and charges that
size for every packet it sends, without asking the packet again: both
builders fix a packet's size from the payload and their header template.
These tests hold the builders to that, for reserved and best-effort flows.
"""

from __future__ import annotations

import pytest

from tests.conftest import T0, grant_full_path

from repro.netsim.nodes import RouterNode
from repro.netsim.scenarios import build_path_simulation


@pytest.mark.parametrize("reserved", [True, False], ids=["hummingbird", "scion"])
def test_every_sent_packet_is_charged_its_own_packet_length(chain3, reserved, monkeypatch):
    topology, path = chain3
    simulation = build_path_simulation(topology, path, start_time=float(T0))
    reservations = grant_full_path(topology, path, start=T0 - 5) if reserved else None
    charged: list[tuple[int, int]] = []  # (packet_length(), size_bytes) per injected packet
    receive = RouterNode.receive

    def recording(node, ingress_ifid, sim_packet):
        if ingress_ifid == 0:  # injected by the source host
            charged.append((sim_packet.packet.packet_length(), sim_packet.size_bytes))
        receive(node, ingress_ifid, sim_packet)

    monkeypatch.setattr(RouterNode, "receive", recording)
    flow = simulation.send(7, 2_000_000, reservations, jitter=0.2)
    simulation.loop.run_until(T0 + 0.2)

    lengths = {length for length, _ in charged}
    assert len(charged) == flow.sent_packets > 10
    assert all(length == size for length, size in charged)
    assert len(lengths) == 1
    assert flow.sent_bytes == flow.sent_packets * lengths.pop()
