"""Per-flow measurement: goodput, latency percentiles, loss.

``FlowMetrics`` keeps the exact per-packet latency list (netsim runs are
small enough); its ``histogram`` buckets that list when read, so flow
latency exports like every other instrument (bucket counts + sum + count).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.registry import BUCKETS, Histogram

#: Bucket edges shared by every flow's latency histogram, in seconds.
LATENCY_BOUNDS: tuple[float, ...] = BUCKETS


@dataclass
class FlowMetrics:
    """Collected at the destination sink for one flow."""

    flow_id: int
    sent_packets: int = 0
    sent_bytes: int = 0
    received_packets: int = 0
    received_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    first_sent: float | None = None
    first_received: float | None = None
    last_received: float | None = None

    def record_sent(self, size_bytes: int, now: float) -> None:
        self.sent_packets += 1
        self.sent_bytes += size_bytes
        if self.first_sent is None:
            self.first_sent = now

    def record_received(self, size_bytes: int, sent_at: float, now: float) -> None:
        self.received_packets += 1
        self.received_bytes += size_bytes
        self.latencies.append(now - sent_at)
        if self.first_received is None:
            self.first_received = now
        self.last_received = now

    @property
    def histogram(self) -> Histogram:
        """The latencies bucketed at ``LATENCY_BOUNDS``, built on each read."""
        histogram = Histogram(LATENCY_BOUNDS)
        for latency in self.latencies:
            histogram.observe(latency)
        return histogram

    @property
    def loss_rate(self) -> float:
        """Fraction of sent packets never delivered, clamped to [0, 1].

        Duplicate deliveries (retransmit experiments) would otherwise push
        this negative.
        """
        if self.sent_packets == 0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.received_packets / self.sent_packets))

    def goodput_bps(self, duration: float | None = None) -> float:
        """Received rate in bits/s over the active window (or ``duration``).

        Counts whole packets as received — payload plus SCION header, the
        ``SimPacket.size_bytes`` a source sets to ``packet_length()`` and the
        bytes a policer charges — not the payload alone.

        Defined for every edge case: a flow that never sent or never
        received, a receiver-only flow (no ``record_sent`` calls — the
        window falls back to first..last reception), and a zero-length
        window all report 0.0 instead of dividing by zero.
        """
        if duration is None:
            start = self.first_sent if self.first_sent is not None else self.first_received
            if start is None or self.last_received is None:
                return 0.0
            duration = self.last_received - start
        if duration <= 0:
            return 0.0
        return self.received_bytes * 8 / duration

    def latency_percentile(self, percentile: float) -> float:
        """Interpolation-free percentile of observed one-way latencies.

        Out-of-range percentiles raise even on an empty flow; no samples
        yields ``nan`` (a defined "no data" value, not an exception).
        """
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self.latencies:
            return float("nan")
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(round(percentile / 100 * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict:
        return {
            "flow": self.flow_id,
            "sent": self.sent_packets,
            "received": self.received_packets,
            "loss_rate": round(self.loss_rate, 4),
            "goodput_mbps": round(self.goodput_bps() / 1e6, 3),
            "p50_ms": round(self.latency_percentile(50) * 1000, 3) if self.latencies else None,
            "p99_ms": round(self.latency_percentile(99) * 1000, 3) if self.latencies else None,
        }
