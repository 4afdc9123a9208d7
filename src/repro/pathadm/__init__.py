"""Path-wide admission and combinatorial path auctions.

The layer that makes the repo inter-domain: :class:`PathAdmission` turns
independent per-AS :class:`~repro.admission.controller.AdmissionController`s
into an all-hops-or-nothing admission authority (two-phase screen →
commit with byte-identical rollback), and
:func:`combinatorial_path_clearing` clears one-escrow path bids
all-or-nothing on top of the per-window uniform-price rule.  See
``docs/paths.md`` for the protocol and the failure/refund matrix.
"""

from repro.pathadm.auction import (
    LegSupply,
    LostPathBid,
    PathClearingOutcome,
    combinatorial_path_clearing,
    path_escrow_mist,
)
from repro.pathadm.protocol import (
    COMMITTED,
    HELD,
    REJECTED,
    ROLLED_BACK,
    HopHold,
    PathAdmission,
    PathCommitError,
    PathHop,
    PathTicket,
)

__all__ = [
    "COMMITTED",
    "HELD",
    "REJECTED",
    "ROLLED_BACK",
    "HopHold",
    "LegSupply",
    "LostPathBid",
    "PathAdmission",
    "PathClearingOutcome",
    "PathCommitError",
    "PathHop",
    "PathTicket",
    "combinatorial_path_clearing",
    "path_escrow_mist",
]
