"""Control plane: CP-PKI, AS services, host clients, end-to-end workflows."""

from repro.controlplane.asclient import (
    AsService,
    AuctionedRectangle,
    DeliveryRecord,
    PathSettlementRecord,
    SettlementRecord,
)
from repro.controlplane.hostclient import (
    AcquireOutcome,
    BidSettlement,
    BudgetExceeded,
    HostClient,
    IncompatibleGranularity,
    ListingNotFound,
)
from repro.controlplane.manager import ReservationLease, ReservationManager
from repro.controlplane.pki import CpPki
from repro.controlplane.workflow import (
    LatencyBreakdown,
    MarketDeployment,
    PathAuctionHandle,
    PurchaseOutcome,
    deploy_market,
    execute_transfer,
    open_path_auction,
    purchase_path,
    settle_path_auction,
)

__all__ = [
    "AcquireOutcome",
    "AsService",
    "AuctionedRectangle",
    "BidSettlement",
    "BudgetExceeded",
    "DeliveryRecord",
    "SettlementRecord",
    "HostClient",
    "IncompatibleGranularity",
    "ListingNotFound",
    "PathAuctionHandle",
    "PathSettlementRecord",
    "ReservationLease",
    "ReservationManager",
    "CpPki",
    "LatencyBreakdown",
    "MarketDeployment",
    "PurchaseOutcome",
    "deploy_market",
    "execute_transfer",
    "open_path_auction",
    "purchase_path",
    "settle_path_auction",
]
