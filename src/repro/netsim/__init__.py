"""Discrete-event network simulator: links, routers, traffic, QoS scenarios."""

from repro.netsim.deadline import (
    DeadlineExperimentResult,
    TransferRecord,
    deadline_experiment,
)
from repro.netsim.events import EventLoop
from repro.netsim.link import Link, LinkStats
from repro.netsim.metrics import FlowMetrics
from repro.netsim.nodes import HostSink, RouterNode, SimPacket
from repro.netsim.scenarios import (
    SIM_PRF,
    AuctionBuyerOutcome,
    AuctionExperimentResult,
    BuyerOutcome,
    CongestionResult,
    ContentionResult,
    FlexBuyerOutcome,
    FlexMarketResult,
    PathBuyerOutcome,
    PathContentionResult,
    PathSimulation,
    ReclaimBuyerOutcome,
    ReclamationArmResult,
    ReclamationResult,
    auction_experiment,
    build_path_simulation,
    congestion_experiment,
    contention_experiment,
    flex_market_experiment,
    linear_path,
    path_contention_experiment,
    reclamation_experiment,
)
from repro.netsim.traffic import CbrSource, FloodSource

__all__ = [
    "EventLoop",
    "Link",
    "LinkStats",
    "FlowMetrics",
    "HostSink",
    "RouterNode",
    "SimPacket",
    "SIM_PRF",
    "AuctionBuyerOutcome",
    "AuctionExperimentResult",
    "BuyerOutcome",
    "CongestionResult",
    "ContentionResult",
    "DeadlineExperimentResult",
    "TransferRecord",
    "deadline_experiment",
    "FlexBuyerOutcome",
    "FlexMarketResult",
    "PathBuyerOutcome",
    "PathContentionResult",
    "PathSimulation",
    "ReclaimBuyerOutcome",
    "ReclamationArmResult",
    "ReclamationResult",
    "auction_experiment",
    "build_path_simulation",
    "congestion_experiment",
    "contention_experiment",
    "flex_market_experiment",
    "linear_path",
    "path_contention_experiment",
    "reclamation_experiment",
    "CbrSource",
    "FloodSource",
]
