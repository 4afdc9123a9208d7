"""Published per-operation timings (Tables 3 and 4 of the paper).

These are the DPDK prototype's numbers on an Intel Xeon 2.1 GHz with
AES-NI.  ``tools/paper_scoreboard.py`` sets our measured timings beside them
(the Python/DPDK ratio is Tables 3 and 4's "ours ÷ paper" in
docs/reproduction.md).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Table 3: border-router packet validation and forwarding (ns per packet).
# ---------------------------------------------------------------------------

ROUTER_STEPS_SCION = [
    ("Check packet size", 14),
    ("Parse packet headers", 30),
    ("Check whether hop field is expired", 8),
    ("Recompute SCION hop field MAC", 46),
    ("Update segment identifier (SegID)", 4),
    ("Update current hop field pointer", 13),
    ("Check if hop field is of type SCION or Flyover", 8),
]

ROUTER_STEPS_HUMMINGBIRD_EXTRA = [
    ("Compute absolute start of reservation (ResStart)", 8),
    ("Compute authentication key (A_i)", 43),
    ("AES-extend authentication key (A_i)", 24),
    ("Validate high-precision time stamp", 6),
    ("Recompute flyover MAC", 44),
    ("Compute aggregate MAC", 4),
    ("Verify xor-ed MAC same as in header", 9),
    ("Check whether the reservation is still active", 8),
    ("Check for overuse", 39),
]

SCION_FORWARD_NS = sum(ns for _, ns in ROUTER_STEPS_SCION)  # 123
HUMMINGBIRD_EXTRA_NS = sum(ns for _, ns in ROUTER_STEPS_HUMMINGBIRD_EXTRA)  # 185
HUMMINGBIRD_FORWARD_NS = SCION_FORWARD_NS + HUMMINGBIRD_EXTRA_NS  # 308

# ---------------------------------------------------------------------------
# Table 4: source packet generation for a 4-hop path (ns per packet).
# ---------------------------------------------------------------------------

SOURCE_HEADERS_NS = 107  # "Add Ethernet, IP, Scion header fields"
SOURCE_FLYOVER_MACS_4HOPS_NS = 201  # "Compute flyover MACs (4 on-path ASes)"
SOURCE_HOPFIELDS_4HOPS_NS = 171  # "Add hop fields for all on-path ASes"
SOURCE_PAYLOAD_500_NS = 15
SOURCE_PAYLOAD_1500_NS = 40

SOURCE_FLYOVER_MAC_PER_HOP_NS = SOURCE_FLYOVER_MACS_4HOPS_NS / 4  # 50.25
SOURCE_HOPFIELD_PER_HOP_NS = SOURCE_HOPFIELDS_4HOPS_NS / 4  # 42.75

# Linear payload-copy model through the two published points.
_PAYLOAD_SLOPE = (SOURCE_PAYLOAD_1500_NS - SOURCE_PAYLOAD_500_NS) / 1000  # 0.025
_PAYLOAD_INTERCEPT = SOURCE_PAYLOAD_500_NS - _PAYLOAD_SLOPE * 500  # 2.5


def source_payload_ns(payload_bytes: int) -> float:
    """Payload-copy cost, interpolated from the 500 B / 1500 B data points."""
    return _PAYLOAD_INTERCEPT + _PAYLOAD_SLOPE * payload_bytes


def scion_generation_ns(hops: int, payload_bytes: int) -> float:
    """Per-packet source cost for best-effort SCION (Table 4 without MACs).

    107 + 171 + 15 = 293 ns for (h=4, 500 B) — exactly the paper's SCION
    total.
    """
    return (
        SOURCE_HEADERS_NS
        + SOURCE_HOPFIELD_PER_HOP_NS * hops
        + source_payload_ns(payload_bytes)
    )


def hummingbird_generation_ns(hops: int, payload_bytes: int) -> float:
    """Per-packet source cost with a flyover on every hop (Table 4 total)."""
    return scion_generation_ns(hops, payload_bytes) + SOURCE_FLYOVER_MAC_PER_HOP_NS * hops
