"""Multicore throughput model: per-packet cost -> Gbps curves.

The model behind Figures 5, 14 and 15: a router (or source gateway) core
processes one packet every ``per_packet_ns``; cores scale linearly (DPDK
run-to-completion, no shared state besides the policing array); the wire
throughput saturates at the line rate::

    throughput(cores) = min(line_rate, cores * 1e9/ns * wire_bits)

Wire sizes follow the byte-exact header layouts, so the curves depend on
payload, hop count and path type exactly as in the paper: bigger payloads
amortize the per-packet cost and reach line rate with fewer cores; SCION
(123 ns) needs fewer cores than Hummingbird (308 ns) until both saturate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel import papertimings as paper

ETHERNET_IPV4_UDP_OVERHEAD = 0  # SCION runs natively on the testbed links
COMMON_AND_ADDR = 36  # common header (12) + address header (24)


def wire_bytes(
    hops: int, payload_bytes: int, hummingbird: bool, flyover_hops: int | None = None
) -> int:
    """Total packet bytes on the wire for an ``hops``-AS single-segment path.

    Hummingbird adds 8 bytes per reserved hop over standard SCION (§4:
    flyover hop fields are 20 B vs 12 B) plus the 8-byte meta-header
    extension (12 B meta vs 4 B).
    """
    if hops < 1:
        raise ValueError("a path needs at least one hop")
    if hummingbird:
        reserved = hops if flyover_hops is None else flyover_hops
        path = 12 + 8 + 20 * reserved + 12 * (hops - reserved)
    else:
        path = 4 + 8 + 12 * hops
    return COMMON_AND_ADDR + path + payload_bytes


@dataclass(frozen=True)
class ThroughputModel:
    """Cores x per-packet-cost -> throughput with a line-rate cap."""

    per_packet_ns: float
    line_rate_gbps: float = paper.PAPER_ENV.line_rate_gbps

    def packets_per_second(self, cores: int) -> float:
        if cores < 1:
            raise ValueError("need at least one core")
        return cores * 1e9 / self.per_packet_ns

    def throughput_gbps(self, cores: int, packet_bytes: int) -> float:
        raw = self.packets_per_second(cores) * packet_bytes * 8 / 1e9
        return min(self.line_rate_gbps, raw)

    def cores_for_line_rate(self, packet_bytes: int) -> int:
        """Smallest core count that saturates the line (Fig. 5 crossover)."""
        cores = 1
        while self.throughput_gbps(cores, packet_bytes) < self.line_rate_gbps:
            cores *= 2
            if cores > 4096:
                raise RuntimeError("line rate unreachable")
        # binary refine
        low, high = cores // 2, cores
        while low + 1 < high:
            mid = (low + high) // 2
            if self.throughput_gbps(mid, packet_bytes) < self.line_rate_gbps:
                low = mid
            else:
                high = mid
        return high


# ---------------------------------------------------------------------------
# Figure series generators.  Each returns
#   {(series key): [(x, gbps), ...]}
# over the paper's parameter grids.
# ---------------------------------------------------------------------------

FIG5_PAYLOADS = (100, 500, 1000, 1500)
FIG5_CORES = (1, 2, 4, 8, 16, 32)
FIG5_HOPS = 4  # forwarding cost is hop-independent; headers assume 4 ASes

FIG14_HOPS = (1, 2, 4, 8, 16)
FIG14_PAYLOAD = 500

FIG15_PAYLOADS = (100, 500, 1000, 1500)


def fig5_forwarding_series() -> dict:
    """Border-router throughput curves (Fig. 5) from the paper's Table 3 costs."""
    series = {}
    for payload in FIG5_PAYLOADS:
        hb_model = ThroughputModel(paper.HUMMINGBIRD_FORWARD_NS)
        scion_model = ThroughputModel(paper.SCION_FORWARD_NS)
        series[("hummingbird", payload)] = [
            (c, hb_model.throughput_gbps(c, wire_bytes(FIG5_HOPS, payload, True)))
            for c in FIG5_CORES
        ]
        series[("scion", payload)] = [
            (c, scion_model.throughput_gbps(c, wire_bytes(FIG5_HOPS, payload, False)))
            for c in FIG5_CORES
        ]
    return series


def fig14_generation_series() -> dict:
    """Source traffic-generation curves vs cores, 500 B payload (Fig. 14),
    from the paper-calibrated Table 4 model."""
    series = {}
    for h in FIG14_HOPS:
        for hummingbird in (True, False):
            model = ThroughputModel(_paper_generation_ns(h, FIG14_PAYLOAD, hummingbird))
            key = ("hummingbird" if hummingbird else "scion", h)
            series[key] = [
                (c, model.throughput_gbps(c, wire_bytes(h, FIG14_PAYLOAD, hummingbird)))
                for c in FIG5_CORES
            ]
    return series


def fig15_singlecore_series(payloads=FIG15_PAYLOADS) -> dict:
    """Single-core source throughput vs payload size (Fig. 15), from the
    paper-calibrated Table 4 model."""
    series = {}
    for h in FIG14_HOPS:
        for hummingbird in (True, False):
            key = ("hummingbird" if hummingbird else "scion", h)
            series[key] = []
            for payload in payloads:
                model = ThroughputModel(_paper_generation_ns(h, payload, hummingbird))
                series[key].append(
                    (payload, model.throughput_gbps(1, wire_bytes(h, payload, hummingbird)))
                )
    return series


def _paper_generation_ns(hops: int, payload: int, hummingbird: bool) -> float:
    if hummingbird:
        return paper.hummingbird_generation_ns(hops, payload)
    return paper.scion_generation_ns(hops, payload)
