"""Admission control: per-interface capacity calendars, the admission rule, pricing.

The subsystem every AS consults before minting bandwidth assets or
delivering reservations, so physical interface capacity can never be
oversold and posted prices respond to scarcity.
"""

from repro.admission.auction import (
    Bid,
    ClearingOutcome,
    LostBid,
    WindowAuction,
    uniform_price_clearing,
)
from repro.admission.calendar import (
    DEFAULT_SHARD_SECONDS,
    AdmissionRejected,
    CapacityCalendar,
    Commitment,
)
from repro.admission.controller import (
    ACTIVE,
    AUCTION,
    ISSUED,
    POSTED,
    AdmissionController,
)
from repro.admission.policy import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionRequest,
)
from repro.admission.pricing import FlatPricer, Pricer, ScarcityPricer

__all__ = [
    "ACTIVE",
    "AUCTION",
    "DEFAULT_SHARD_SECONDS",
    "ISSUED",
    "POSTED",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionRejected",
    "AdmissionRequest",
    "Bid",
    "CapacityCalendar",
    "ClearingOutcome",
    "Commitment",
    "FlatPricer",
    "LostBid",
    "Pricer",
    "ScarcityPricer",
    "WindowAuction",
    "uniform_price_clearing",
]
