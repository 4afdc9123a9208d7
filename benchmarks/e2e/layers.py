"""Per-layer metrics of one traced round: the waterfall and the counters.

Every name listed in :data:`PER_LAYER` is emitted for every workload; a
layer a workload never enters reads 0, which is itself the prediction
("``forward_4hop``'s data phase: zero calls into ``ledger``").
"""

from __future__ import annotations

import statistics

from .trace import LAYERS, Tracer

PK_CALLS = (  # every traced callable that performs a 2048-bit modexp
    "SigningKey.public", "SigningKey.sign", "verify", "KeyPair.generate", "seal", "unseal",
)
PRF_CALLS = ("AesPrf.compute", "Blake2Prf.compute")

# (name, unit, better).  Direction says which way is good, not which way
# a given change should move it.
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS + ("driver",)]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("crypto.share", "ratio", "lower"),
        ("crypto.control_share", "ratio", "lower"),
        ("crypto.pk_ops", "count", "lower"),
        ("crypto.pk_ops_per_lifecycle", "count", "lower"),
        ("crypto.prf_ops", "count", "lower"),
        ("ledger.events_scanned", "count", "lower"),
        ("ledger.txs", "count", "lower"),
        ("ledger.failed_txs", "count", "lower"),
        ("ledger.host_gas_sui", "SUI", "lower"),
        ("ledger.tx_p50_ms", "ms", "lower"),
        ("ledger.sim_latency_p50_s", "s", "lower"),
        ("contracts.commands", "count", "lower"),
        ("contracts.commands_per_tx", "ratio", "higher"),
        ("admission.decisions", "count", "lower"),
        ("admission.rejected", "count", "lower"),
        ("admission.decision_p50_us", "us", "lower"),
        ("pathadm.screens", "count", "lower"),
        ("marketdata.quotes", "count", "lower"),
        ("marketdata.quote_p50_ms", "ms", "lower"),
        ("marketdata.events_applied", "count", "lower"),
        ("transfers.plans", "count", "lower"),
        ("transfers.plan_p50_ms", "ms", "lower"),
        ("transfers.legs", "count", "lower"),
        ("transfers.buys", "count", "lower"),
        ("controlplane.scan_waste", "ratio", "lower"),
        ("controlplane.scan_waste_growth", "ratio", "lower"),
        ("controlplane.collect_p50_ms", "ms", "lower"),
        ("controlplane.deliveries", "count", "lower"),
        ("controlplane.delivery_p50_ms", "ms", "lower"),
        ("hummingbird.source_build_p50_us", "us", "lower"),
        ("hummingbird.router_hop_p50_us", "us", "lower"),
        ("hummingbird.pkt_p99_us", "us", "lower"),
        ("hummingbird.demoted_share", "ratio", "lower"),
        ("hummingbird.dropped_share", "ratio", "lower"),
        ("hummingbird.cost_ratio_vs_scion", "ratio", "lower"),
        ("scion.router_hop_p50_us", "us", "lower"),
        ("scion.pkts_per_s", "1/s", "higher"),
        ("netsim.events", "count", "lower"),
        ("netsim.events_per_s", "1/s", "higher"),
        ("netsim.queue_drops", "count", "lower"),
        ("netsim.link_busy_share", "ratio", "higher"),
        ("netsim.victim_p99_ms", "ms", "lower"),
        ("driver.timed_wall_s", "s", "lower"),
        ("driver.machine_slowdown", "ratio", "lower"),
        ("driver.data_phase_control_calls", "count", "lower"),
        ("driver.trace_overhead", "ratio", "lower"),
        ("driver.trace_unresolved", "count", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

CONTROL_LAYERS = ("ledger", "contracts", "marketdata", "transfers")


def median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def durations(spans) -> list:
    return [end - start for _, start, end, _, _, _ in spans]


def per_layer(tracer: Tracer, result, data_began: float, timeline) -> dict:
    """Metrics of one traced round (all but ``driver.trace_overhead``).

    ``data_began`` is the tracer-clock reading at which the data phase
    started: spans after it are packet handling.  The waterfall is in
    uncalibrated clock seconds, with the speed sampler's interruptions cut
    out of the wall and of the spans they landed in alike.
    """
    wall = result.raw_wall_s
    lifecycles = max(1, len(result.lifecycle_s))
    observed = {**result.observed, **result.rates}
    metrics = dict.fromkeys(UNITS, 0.0)

    self_times = tracer.self_times(timeline.raw)
    totals = tracer.layer_totals(self_times)
    for layer in LAYERS:
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    metrics["driver.self_s"] = wall - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["driver.timed_wall_s"] = wall
    metrics["driver.machine_slowdown"] = result.slowdown
    metrics["driver.trace_unresolved"] = len(tracer.unresolved)

    metrics["crypto.share"] = metrics["crypto.self_s"] / wall
    layer_of = [boundary.layer for boundary in tracer.boundaries]
    metrics["crypto.control_share"] = sum(
        self_time
        for span, self_time in zip(tracer.spans, self_times)
        if span[1] < data_began and layer_of[span[0]] == "crypto"
    ) / result.raw_control_s
    metrics["crypto.pk_ops"] = sum(tracer.calls(name) for name in PK_CALLS)
    metrics["crypto.pk_ops_per_lifecycle"] = metrics["crypto.pk_ops"] / lifecycles
    metrics["crypto.prf_ops"] = sum(tracer.calls(name) for name in PRF_CALLS)

    scans = tracer.select("Ledger.events_since")
    metrics["ledger.events_scanned"] = sum(span[5] or 0 for span in scans)
    metrics["ledger.txs"] = observed["ledger.txs"]
    metrics["ledger.failed_txs"] = observed["ledger.failed_txs"]
    metrics["ledger.host_gas_sui"] = result.gas_sui
    metrics["ledger.tx_p50_ms"] = median(durations(tracer.select("LedgerExecutor.submit")), 1e3)
    metrics["ledger.sim_latency_p50_s"] = median(observed["ledger.sim_latency_s"])
    metrics["contracts.commands"] = observed["contracts.commands"]
    if observed["ledger.txs"]:
        metrics["contracts.commands_per_tx"] = (
            observed["contracts.commands"] / observed["ledger.txs"]
        )

    decisions = tracer.select("AdmissionController.admit_issue") + tracer.select(
        "AdmissionController.admit_reservation"
    )
    metrics["admission.decisions"] = len(decisions)
    metrics["admission.rejected"] = sum(span[5] or 0 for span in decisions)
    metrics["admission.decision_p50_us"] = median(durations(decisions), 1e6)
    metrics["pathadm.screens"] = tracer.calls("PathAdmission.screen")

    # a quote is one entry into the marketdata layer from outside it
    quotes = [
        span
        for span in tracer.spans
        if layer_of[span[0]] == "marketdata"
        and (span[3] < 0 or layer_of[tracer.spans[span[3]][0]] != "marketdata")
    ]
    metrics["marketdata.quotes"] = len(quotes)
    metrics["marketdata.quote_p50_ms"] = median(durations(quotes), 1e3)
    metrics["marketdata.events_applied"] = sum(
        span[5] or 0 for span in tracer.select("MarketIndexer.sync")
    )

    plans = tracer.select("TransferPlanner.plan")
    metrics["transfers.plans"] = len(plans)
    metrics["transfers.plan_p50_ms"] = median(durations(plans), 1e3)
    metrics["transfers.legs"] = observed.get("transfers.legs", 0)
    metrics["transfers.buys"] = observed.get("transfers.buys", 0)

    # scan waste: events a host was handed per reservation it got out of them
    collects = {
        position: tracer.spans[position]
        for position in tracer.positions("HostClient.collect_reservations")
    }
    handed = dict.fromkeys(collects, 0)
    for span in scans:
        if span[3] in handed:
            handed[span[3]] += span[5] or 0
    wastes = [
        handed[position] / span[5] for position, span in collects.items() if span[5]
    ]
    collected = sum(span[5] or 0 for span in collects.values())
    if collected:
        metrics["controlplane.scan_waste"] = sum(handed.values()) / collected
        metrics["controlplane.scan_waste_growth"] = wastes[-1] / wastes[0]
    metrics["controlplane.collect_p50_ms"] = median(durations(collects.values()), 1e3)
    deliveries = tracer.select("AsService._deliver")
    metrics["controlplane.deliveries"] = len(deliveries)
    metrics["controlplane.delivery_p50_ms"] = median(durations(deliveries), 1e3)

    # a router hop that re-derived a reservation key handled a reserved packet
    reserved_hops = {span[3] for span in tracer.select("derive_auth_key")}
    hops = tracer.positions("HummingbirdRouter.process")
    reserved = durations(tracer.spans[p] for p in hops if p in reserved_hops)
    plain = durations(tracer.spans[p] for p in hops if p not in reserved_hops)
    metrics["hummingbird.source_build_p50_us"] = median(
        durations(tracer.select("HummingbirdSource.build_packet")), 1e6
    )
    metrics["hummingbird.router_hop_p50_us"] = median(reserved, 1e6)
    metrics["scion.router_hop_p50_us"] = median(plain, 1e6)
    if reserved and plain:
        metrics["hummingbird.cost_ratio_vs_scion"] = median(reserved) / median(plain)
    metrics["hummingbird.pkt_p99_us"] = percentile(result.packet_us, 0.99)

    for name in (
        "hummingbird.demoted_share", "hummingbird.dropped_share", "scion.pkts_per_s",
        "netsim.events", "netsim.events_per_s", "netsim.queue_drops",
        "netsim.link_busy_share", "netsim.victim_p99_ms",
    ):
        metrics[name] = observed.get(name, 0.0)

    # the data phase must not touch the control plane at all
    metrics["driver.data_phase_control_calls"] = sum(
        1
        for span in tracer.spans
        if span[1] >= data_began and layer_of[span[0]] in CONTROL_LAYERS
    )
    return metrics
