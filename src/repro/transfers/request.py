"""Deadline-driven bulk transfers: the request and plan model.

The marketplace sells fixed rate-over-window rectangles, but the flagship
grid workload asks for *work*, not a shape: "move N bytes across this path
before deadline T, spending at most B MIST".  A
:class:`DeadlineTransfer` captures that request and a
:class:`TransferPlan` is the planner's malleable answer — a sequence of
time-disjoint :class:`TransferLeg`\\ s, each reserving one rate over one
granule-aligned window across every AS crossing, with per-direction
:class:`LegPiece` purchases stitched across listing boundaries (adjacent
pieces are fused on-chain before redeem, so each hop redeems once per
leg).

Payload accounting uses the data-plane identity ``1 kbps·s = 125 bytes``;
bytes only count inside ``[release, deadline)`` even when granule
alignment forces a purchased window to start earlier or end later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Payload carried by one kbps-second of reserved bandwidth.
BYTES_PER_KBPS_SECOND = 125

#: Longest window one on-chain redeem accepts (duration < 2^16 s).
MAX_REDEEM_SECONDS = (1 << 16) - 1


class InfeasibleTransfer(RuntimeError):
    """No plan moves the transfer's bytes by its deadline.

    Carries the best the planner *could* do so callers can degrade
    gracefully (``achievable_bytes`` / ``achievable_spend_mist`` describe
    the max-bytes schedule, zero when nothing is buyable).
    """

    def __init__(
        self,
        message: str,
        achievable_bytes: int = 0,
        achievable_spend_mist: int = 0,
    ) -> None:
        super().__init__(message)
        self.achievable_bytes = achievable_bytes
        self.achievable_spend_mist = achievable_spend_mist


class TransferAborted(RuntimeError):
    """A planned transfer could not be executed against the live market.

    Raised client-side when a planned listing vanished before submission
    (``submitted`` is None — no transaction, no gas) or when the atomic
    buy+fuse+redeem transaction itself aborted (``submitted`` carries the
    failed transaction; the ledger rolled every command back, so no money
    moved and no assets changed hands).
    """

    def __init__(self, message: str, submitted=None) -> None:
        super().__init__(message)
        self.submitted = submitted


@dataclass(frozen=True)
class DeadlineTransfer:
    """"Move ``bytes_total`` over ``crossings`` before ``deadline``."

    ``release`` is the earliest instant data exists to send;
    ``max_rate_kbps`` caps the instantaneous rate (None = whatever the
    market sells).
    """

    crossings: tuple
    bytes_total: int
    release: int
    deadline: int
    max_rate_kbps: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crossings", tuple(self.crossings))
        if not self.crossings:
            raise ValueError("transfer needs at least one AS crossing")
        if self.bytes_total <= 0:
            raise ValueError("bytes_total must be positive")
        if self.deadline <= self.release:
            raise ValueError("deadline must be after release")
        if self.max_rate_kbps is not None and self.max_rate_kbps <= 0:
            raise ValueError("max_rate_kbps must be positive")


@dataclass(frozen=True)
class LegPiece:
    """One ``market.buy``: a sub-rectangle of one listing."""

    listing_id: str
    start: int
    expiry: int
    price_mist: int


@dataclass(frozen=True)
class HopLeg:
    """One AS crossing's purchases for one leg.

    Pieces are time-adjacent, cover the leg window exactly in each
    direction, and share the leg rate — so they fuse into one asset per
    direction and redeem as a single ingress/egress pair.
    """

    isd_as: object
    ingress: int
    egress: int
    ingress_pieces: tuple[LegPiece, ...]
    egress_pieces: tuple[LegPiece, ...]

    @property
    def price_mist(self) -> int:
        return sum(p.price_mist for p in self.ingress_pieces) + sum(
            p.price_mist for p in self.egress_pieces
        )


@dataclass(frozen=True)
class TransferLeg:
    """One purchased rectangle of the plan: one rate over one window.

    ``start``/``expiry`` is the granule-aligned *purchased* window;
    ``effective_start``/``effective_expiry`` clips it to the transfer's
    ``[release, deadline)`` — only bytes inside the clip count toward the
    request.  ``bytes_scheduled`` is how much of the request this leg
    actually carries: at most ``rate_kbps`` over the clipped window.
    """

    start: int
    expiry: int
    rate_kbps: int
    effective_start: int
    effective_expiry: int
    bytes_scheduled: int
    hops: tuple[HopLeg, ...]

    @property
    def price_mist(self) -> int:
        return sum(hop.price_mist for hop in self.hops)


@dataclass(frozen=True)
class TransferPlan:
    """A full malleable schedule answering one :class:`DeadlineTransfer`."""

    transfer: DeadlineTransfer
    legs: tuple[TransferLeg, ...]

    @property
    def bytes_scheduled(self) -> int:
        return sum(leg.bytes_scheduled for leg in self.legs)

    @property
    def spend_mist(self) -> int:
        """Exact MIST the atomic execution will pay: the sum of every
        piece's own ceil price (merged windows round once, not per slot)."""
        return sum(leg.price_mist for leg in self.legs)

    @property
    def buy_count(self) -> int:
        return sum(
            len(hop.ingress_pieces) + len(hop.egress_pieces)
            for leg in self.legs
            for hop in leg.hops
        )

    @property
    def redeem_count(self) -> int:
        return sum(len(leg.hops) for leg in self.legs)

    @property
    def meets_request(self) -> bool:
        return self.bytes_scheduled >= self.transfer.bytes_total


@dataclass
class TransferOutcome:
    """What one executed transfer achieved end-to-end."""

    plan: TransferPlan
    submitted: object
    price_mist: int
    reservations: list = field(default_factory=list)

    @property
    def bytes_moved(self) -> int:
        return self.plan.bytes_scheduled
