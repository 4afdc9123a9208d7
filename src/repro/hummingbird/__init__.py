"""Hummingbird data plane: the paper's primary contribution.

Flyover reservations (per-AS-hop, composable, identity-free), the
byte-exact Hummingbird SCION path type, per-packet MAC authentication with
XOR aggregation, the border-router pipeline of Algorithms 1-4, deterministic
token-bucket policing, online-interval-colouring ResID assignment, path
reversal and optional duplicate suppression.

Bidirectional reservations (Appendix C) need no module of their own: the
source buys the reverse path too and seals each reservation's
:meth:`FlyoverReservation.to_bytes` record to the destination with
:func:`repro.crypto.sealing.seal`, as an AS delivers one
(``examples/bidirectional_reservation.py``).
"""

from repro.hummingbird.duplicate import DuplicateFilter
from repro.hummingbird.mac import (
    TAG_LEN,
    checked_pkt_len,
    compute_flyover_mac,
    pack_flyover_mac_input,
)
from repro.hummingbird.pathtype import (
    FLYOVER_HOPFIELD_LEN,
    HOPFIELD_LEN,
    FlyoverHopFieldData,
    HummingbirdPath,
    is_flyover,
)
from repro.hummingbird.policing import (
    BURST_TIME,
    PerInterfacePolicer,
    PolicingVerdict,
    TokenBucketArray,
)
from repro.hummingbird.reservation import (
    FlyoverReservation,
    ResInfo,
    grant_reservation,
)
from repro.hummingbird.resid import (
    CapacityExhausted,
    FirstFitColoring,
    Interval,
    ResIdAllocator,
    policing_array_bytes,
)
from repro.hummingbird.reversal import reverse_path, to_standard_path
from repro.hummingbird.router import HummingbirdRouter, RouterStats
from repro.hummingbird.source import (
    FlyoverPlacement,
    HummingbirdSource,
    ReservationMismatch,
    ScionBestEffortSource,
    match_reservations,
)

__all__ = [
    "DuplicateFilter",
    "TAG_LEN",
    "checked_pkt_len",
    "compute_flyover_mac",
    "pack_flyover_mac_input",
    "FLYOVER_HOPFIELD_LEN",
    "HOPFIELD_LEN",
    "FlyoverHopFieldData",
    "HummingbirdPath",
    "is_flyover",
    "BURST_TIME",
    "PerInterfacePolicer",
    "PolicingVerdict",
    "TokenBucketArray",
    "FlyoverReservation",
    "ResInfo",
    "grant_reservation",
    "CapacityExhausted",
    "FirstFitColoring",
    "Interval",
    "ResIdAllocator",
    "policing_array_bytes",
    "reverse_path",
    "to_standard_path",
    "HummingbirdRouter",
    "RouterStats",
    "FlyoverPlacement",
    "HummingbirdSource",
    "ReservationMismatch",
    "ScionBestEffortSource",
    "match_reservations",
]
