"""Admission control: per-interface capacity calendars, policies, pricing.

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
from repro.admission.calendar import AdmissionRejected, CapacityCalendar, Commitment
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
    FirstComeFirstServed,
    OverbookingPolicy,
    ProportionalShare,
)
from repro.admission.pricing import FlatPricer, Pricer, ScarcityPricer

__all__ = [
    "ACTIVE",
    "AUCTION",
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
    "FirstComeFirstServed",
    "FlatPricer",
    "LostBid",
    "OverbookingPolicy",
    "Pricer",
    "ProportionalShare",
    "ScarcityPricer",
    "WindowAuction",
    "uniform_price_clearing",
]
