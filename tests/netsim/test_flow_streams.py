"""Every simulated flow draws its jitter from a stream named for it.

``PathSimulation.send`` hands each flow its own
``random.Random(f"{SEED}/flow/{flow_id}")``, so a flow's packet schedule
depends only on its own id, rate, delay and jitter.  When every flow of a
simulation drew from one stream, adding a flow re-drew the others' packet
gaps: buyer-0 of ``contention_experiment`` sent 112, 112 and 113 packets at
2, 4 and 6 buyers, and two probes that bought the same window in
``flex_market_experiment`` read 1.987 and 1.985 Mbps.  A reserved flow's
service then moved with the number of other senders, which is exactly what
property D2 (and a botnet-size check) must be able to rule out.
"""

from __future__ import annotations

from repro.netsim import contention_experiment, flex_market_experiment, linear_path, scenarios
from repro.netsim.metrics import FlowMetrics


def test_a_flows_send_times_do_not_move_with_the_number_of_flows(monkeypatch):
    sent: list[float] = []
    record_sent = FlowMetrics.record_sent

    def recording(self, size_bytes, now):
        if self.flow_id == 1:  # buyer-0's flow
            sent.append(now)
        record_sent(self, size_bytes, now)

    monkeypatch.setattr(FlowMetrics, "record_sent", recording)
    schedules = []
    for num_buyers in (2, 4, 6):
        sent.clear()
        contention_experiment(*linear_path(3), num_buyers=num_buyers, duration=0.5)
        schedules.append(list(sent))
    assert schedules[0]  # buyer-0 sends at every size
    assert schedules[0] == schedules[1] == schedules[2]


def test_two_probes_buying_the_same_window_see_the_same_flow(monkeypatch):
    monkeypatch.setattr(scenarios, "FLEX_VALUES", (0, 0))
    result = flex_market_experiment(duration=0.3)
    first, second = result.buyers
    assert result.window_starts[0] == result.window_starts[1]
    assert first.metrics == second.metrics
