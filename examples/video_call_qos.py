#!/usr/bin/env python3
"""Video call under a DDoS flood: the QoS experiment (property D2).

The paper's motivating scenario (§1): an important video call must survive
congestion.  We simulate a 4 Mbps video call over a 6-AS path whose 20 Mbps
bottleneck gets flooded by a best-effort adversary at 3x the link rate, and
compare three configurations:

* best effort only — the call competes with the flood and collapses;
* full-path reservation — every AS hop reserved: goodput and latency hold;
* partial reservation — only the congested hop reserved (§3.1,
  "composable flyovers"): protection where it matters, at a fraction of
  the cost.

The reservations are bought on a bandwidth market the six ASes deploy over
the same topology (atomic buy-and-redeem, then one sealed delivery per AS).

Run:  python examples/video_call_qos.py
"""

from repro.analysis import render_table, sparkline
from repro.clock import SimClock
from repro.controlplane import deploy_market, purchase_path
from repro.netsim import build_path_simulation, linear_path
from repro.netsim.scenarios import SIM_PRF
from repro.scion.paths import as_crossings

CALL_RATE = 4_000_000.0  # 4 Mbps 1080p call (§4.4)
LINK_RATE = 20_000_000.0
FLOOD_RATE = 60_000_000.0
DURATION = 3.0
START = 1_700_000_000


def buy_call(topology, path) -> list:
    """The caller's 5 Mbps full-path reservation, bought on a market the
    ASes deploy; the routers verify with SIM_PRF, so the ASes key with it."""
    market = deploy_market(topology, clock=SimClock(START), prf_factory=SIM_PRF)
    return purchase_path(
        market,
        market.new_host(name="caller"),
        as_crossings(path),
        start=START,
        expiry=START + 600,
        bandwidth_kbps=5_000,
    ).reservations


def run_call(topology, path, reservations):
    """The call's metrics over a fresh simulation: best effort when
    ``reservations`` is None, protected by them otherwise."""
    # The first inter-AS link is the 20 Mbps bottleneck; the rest are fast.
    rates = [LINK_RATE] + [100_000_000.0] * 4
    simulation = build_path_simulation(
        topology, path, start_time=START, link_rates=rates
    )
    call_metrics = simulation.send(1, CALL_RATE, reservations, jitter=0.05)
    simulation.send(2, FLOOD_RATE, delay=0.2)
    simulation.run(DURATION)
    return call_metrics


def main() -> None:
    topology, path = linear_path(6)
    reservations = buy_call(topology, path)
    rows = []
    for held, label in (
        (None, "best effort"),
        # only the flyover at the bottleneck AS (the first hop)
        (reservations[:1], "bottleneck-hop flyover"),
        (reservations, "full-path reservation"),
    ):
        call = run_call(topology, path, held)
        summary = call.summary()
        rows.append(
            [
                label,
                f"{summary['goodput_mbps']:.2f}",
                f"{100 * summary['loss_rate']:.1f}%",
                f"{summary['p50_ms']}",
                f"{summary['p99_ms']}",
                sparkline([float(count) for count in call.histogram.counts]),
            ]
        )
    print(
        render_table(
            ["protection", "goodput Mbps", "loss", "p50 ms", "p99 ms", "latency buckets"],
            rows,
            title=f"4 Mbps video call vs {FLOOD_RATE/1e6:.0f} Mbps flood "
            f"on a {LINK_RATE/1e6:.0f} Mbps bottleneck (QoS property D2)",
        )
    )


if __name__ == "__main__":
    main()
