"""Atomic path-wide admission: two-phase screen → commit across ASes.

Hummingbird's headline object is a reservation on *every* hop of an
inter-domain path, but each AS admits independently — its own
:class:`~repro.admission.controller.AdmissionController`, its own policy,
pricing, sharding, and allocation mode.  A path-wide grant therefore
needs a coordinator that makes N independent admission authorities act
like one atomic one:

1. **screen** — walk the hops in path order; at each hop admit the
   window on both interface directions the path crosses (ingress in,
   egress out).  An admit *is* the provisional hold: the capacity is
   committed into the hop's calendar, so no concurrent path (or single-
   interface sale) can take it while downstream hops are still being
   checked.  The first rejection aborts the walk and releases every
   upstream hold in reverse order.
2. **commit** — run the caller's per-hop effect (ledger transaction,
   asset mint, reservation delivery) under the holds.  If the effect
   fails at hop *k*, holds at *every* hop — including the already-
   effected 0..k-1 — are released.

Because a calendar's ``release`` exactly re-subtracts the levels a
``commit`` added, prunes the boundaries it introduced and hands back the
shards it created, rollback leaves each upstream calendar
**byte-identical** to one that never saw the path (see
:mod:`repro.pathadm.fingerprint` for the precise claim and
``tests/pathadm/test_path_rollback_property.py`` for the hypothesis
proof at both shard geometries).

>>> from repro.admission import AdmissionController
>>> hops = [PathHop(f"as{i}", AdmissionController(1000), 1, 2) for i in range(3)]
>>> path = PathAdmission(hops)
>>> ticket = path.screen(600, 0.0, 3600.0, tag="alice")
>>> ticket.admitted, len(ticket.holds)
(True, 3)
>>> path.screen(600, 0.0, 3600.0).failed_hop  # contends with the hold
0
>>> path.rollback(ticket).state
'rolled_back'
>>> path.screen(600, 0.0, 3600.0).admitted    # capacity restored
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.admission.controller import ACTIVE, ISSUED, AdmissionController
from repro.admission.calendar import Commitment
from repro.telemetry import get_registry
from repro.telemetry.tracing import current_trace

__all__ = [
    "HELD",
    "COMMITTED",
    "REJECTED",
    "ROLLED_BACK",
    "HopHold",
    "PathAdmission",
    "PathCommitError",
    "PathHop",
    "PathTicket",
]

HELD = "held"
COMMITTED = "committed"
REJECTED = "rejected"
ROLLED_BACK = "rolled_back"


@dataclass(frozen=True)
class PathHop:
    """One AS on the path: its admission authority and the crossed interfaces.

    A path enters the AS on ``ingress_interface`` and leaves on
    ``egress_interface``; the hop claims capacity on *both* directions —
    ``(ingress, True)`` and ``(egress, False)`` — exactly the pair
    ``AsService`` admits when delivering a reservation.
    """

    name: str
    controller: AdmissionController
    ingress_interface: int
    egress_interface: int

    @property
    def claims(self) -> tuple[tuple[int, bool], ...]:
        return ((self.ingress_interface, True), (self.egress_interface, False))


@dataclass(frozen=True)
class HopHold:
    """The provisional calendar claims screening took at one hop."""

    hop_index: int
    claims: tuple[tuple[int, bool, Commitment], ...]


@dataclass
class PathTicket:
    """One path-wide admission attempt and its lifecycle state.

    ``state`` moves ``held -> committed`` on success, ``held ->
    rolled_back`` on abort, and is ``rejected`` from birth when screening
    failed (``failed_hop``/``reason`` say where and why).  A committed
    ticket may still be rolled back later — that releases the granted
    capacity (expiry by hand).
    """

    bandwidth_kbps: int
    start: float
    end: float
    tag: str
    layer: str
    state: str
    holds: tuple[HopHold, ...] = ()
    failed_hop: int | None = None
    reason: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def admitted(self) -> bool:
        return self.state in (HELD, COMMITTED)


class PathCommitError(RuntimeError):
    """A per-hop commit effect failed; every hold has been rolled back."""

    def __init__(self, hop_index: int, cause: BaseException) -> None:
        super().__init__(
            f"path commit failed at hop {hop_index}: {cause!r}; "
            "all holds rolled back"
        )
        self.hop_index = hop_index


class PathAdmission:
    """Coordinator turning per-AS admission into an all-hops-or-nothing grant.

    The coordinator is stateless between tickets — all state lives in the
    per-hop calendars (via the holds) and in the tickets themselves, so
    any number of paths can interleave over shared controllers.
    """

    def __init__(self, hops, telemetry: bool | None = None) -> None:
        """Wrap ``hops`` (an iterable of :class:`PathHop`) in a coordinator.

        ``telemetry=False`` disarms the coordinator's own counters even
        under a live registry (the per-hop controllers carry their own
        override) — used by ``tools/perf_guard.py`` to benchmark an armed
        and a disarmed path side by side in one process.
        """
        self.hops: tuple[PathHop, ...] = tuple(hops)
        if not self.hops:
            raise ValueError("a path needs at least one hop")
        registry = get_registry()
        self._telemetry = registry.enabled if telemetry is None else (
            bool(telemetry) and registry.enabled
        )
        screens = registry.counter(
            "pathadm_screen_total",
            "Path-wide screens by outcome (held = every hop admitted).",
            ("outcome",),
        )
        commits = registry.counter(
            "pathadm_commit_total",
            "Path-wide commits by outcome.",
            ("outcome",),
        )
        self._m_screen = {
            HELD: screens.labels(HELD),
            REJECTED: screens.labels(REJECTED),
        }
        self._m_commit = {
            COMMITTED: commits.labels(COMMITTED),
            ROLLED_BACK: commits.labels(ROLLED_BACK),
        }
        self._m_rollbacks = registry.counter(
            "pathadm_rollback_total",
            "Tickets rolled back (screen aborts excluded).",
        ).labels()
        self._m_hops_admitted = registry.counter(
            "pathadm_hop_admits_total",
            "Per-hop interface-direction admits taken by screens.",
        ).labels()

    def __len__(self) -> int:
        return len(self.hops)

    # -- screen -------------------------------------------------------------------

    def screen(
        self,
        bandwidth_kbps: int,
        start: float,
        end: float,
        tag: str = "",
        layer: str = ISSUED,
    ) -> PathTicket:
        """Check and provisionally hold the window on every hop.

        Args:
            bandwidth_kbps: bandwidth wanted on every hop.
            start, end: the reservation window (seconds).
            tag: buyer label recorded on every hop commitment (drives
                per-buyer policies like
                :class:`~repro.admission.policy.ProportionalShare`).
            layer: :data:`~repro.admission.controller.ISSUED` (minting
                path assets) or :data:`~repro.admission.controller.ACTIVE`
                (delivering / directly granting a live reservation).

        Returns:
            A :class:`PathTicket` — ``held`` with one :class:`HopHold`
            per hop, or ``rejected`` with ``failed_hop``/``reason`` and
            every upstream hold already released.
        """
        if layer not in (ISSUED, ACTIVE):
            raise ValueError(f"unknown calendar layer {layer!r}")
        trace = current_trace()
        span = (
            trace.span(
                "path.screen",
                hops=len(self.hops),
                bandwidth_kbps=int(bandwidth_kbps),
                layer=layer,
                tag=tag,
            )
            if trace is not None
            else None
        )
        issued = layer == ISSUED
        holds: list[HopHold] = []
        claims_taken = 0
        ticket = None
        for index, hop in enumerate(self.hops):
            taken: list[tuple[int, bool, Commitment]] = []
            for interface, is_ingress in hop.claims:
                admit = (
                    hop.controller.admit_issue
                    if issued
                    else hop.controller.admit_reservation
                )
                decision = admit(
                    interface, is_ingress, bandwidth_kbps, start, end, tag=tag
                )
                if not decision.admitted:
                    for t_interface, t_ingress, commitment in reversed(taken):
                        hop.controller.release(
                            t_interface, t_ingress, commitment, layer=layer
                        )
                    self._release_holds(holds, layer)
                    reason = (
                        f"hop {index} ({hop.name}) interface {interface} "
                        f"{'ingress' if is_ingress else 'egress'}: "
                        f"{decision.reason}"
                    )
                    ticket = PathTicket(
                        bandwidth_kbps=int(bandwidth_kbps),
                        start=float(start),
                        end=float(end),
                        tag=tag,
                        layer=layer,
                        state=REJECTED,
                        failed_hop=index,
                        reason=reason,
                    )
                    break
                taken.append((interface, is_ingress, decision.commitment))
            if ticket is not None:
                break
            holds.append(HopHold(hop_index=index, claims=tuple(taken)))
            claims_taken += len(taken)
        if ticket is None:
            ticket = PathTicket(
                bandwidth_kbps=int(bandwidth_kbps),
                start=float(start),
                end=float(end),
                tag=tag,
                layer=layer,
                state=HELD,
                holds=tuple(holds),
            )
        if self._telemetry:
            self._m_screen[HELD if ticket.admitted else REJECTED].value += 1.0
            if ticket.admitted:
                self._m_hops_admitted.value += float(claims_taken)
        if span is not None:
            span.set(
                outcome=ticket.state,
                failed_hop=ticket.failed_hop,
                reason=ticket.reason,
            )
            span.__exit__(None, None, None)
        return ticket

    # -- commit / rollback --------------------------------------------------------

    def commit(self, ticket: PathTicket, hook=None) -> PathTicket:
        """Make the held path permanent, all hops or none.

        Args:
            ticket: a ``held`` ticket from :meth:`screen`.
            hook: optional per-hop effect ``hook(hop_index, hop, hold)``
                run in path order — the ledger transaction, delivery, or
                mint that the hold was protecting.  The holds themselves
                already live in the calendars, so a hook-less commit just
                flips the ticket state.

        Returns:
            The ticket, now ``committed``.

        Raises:
            ValueError: the ticket is not in the ``held`` state.
            PathCommitError: the hook failed at some hop; *every* hold
                (including hops whose hook already ran) has been released
                and the ticket is ``rolled_back``.
        """
        if ticket.state != HELD:
            raise ValueError(f"cannot commit a {ticket.state!r} ticket")
        trace = current_trace()
        if hook is not None:
            for hold in ticket.holds:
                hop = self.hops[hold.hop_index]
                try:
                    hook(hold.hop_index, hop, hold)
                except BaseException as exc:
                    self._release_holds(ticket.holds, ticket.layer)
                    ticket.state = ROLLED_BACK
                    ticket.failed_hop = hold.hop_index
                    ticket.reason = f"commit effect failed: {exc!r}"
                    if self._telemetry:
                        self._m_commit[ROLLED_BACK].value += 1.0
                    if trace is not None:
                        trace.event(
                            "path.rollback",
                            hops=len(self.hops),
                            failed_hop=hold.hop_index,
                            reason=ticket.reason,
                        )
                    raise PathCommitError(hold.hop_index, exc) from exc
        ticket.state = COMMITTED
        if self._telemetry:
            self._m_commit[COMMITTED].value += 1.0
        if trace is not None:
            trace.event(
                "path.commit",
                hops=len(self.hops),
                bandwidth_kbps=ticket.bandwidth_kbps,
                layer=ticket.layer,
                tag=ticket.tag,
            )
        return ticket

    def rollback(self, ticket: PathTicket) -> PathTicket:
        """Release every hold of a held or committed ticket.

        Idempotent: rolling back a ``rejected`` or already ``rolled_back``
        ticket is a no-op (screen already released everything).
        """
        if ticket.state in (REJECTED, ROLLED_BACK):
            return ticket
        self._release_holds(ticket.holds, ticket.layer)
        ticket.state = ROLLED_BACK
        if self._telemetry:
            self._m_rollbacks.value += 1.0
        trace = current_trace()
        if trace is not None:
            trace.event(
                "path.rollback",
                hops=len(self.hops),
                bandwidth_kbps=ticket.bandwidth_kbps,
                layer=ticket.layer,
                tag=ticket.tag,
            )
        return ticket

    def _release_holds(self, holds, layer: str) -> None:
        for hold in reversed(list(holds)):
            hop = self.hops[hold.hop_index]
            for interface, is_ingress, commitment in reversed(hold.claims):
                hop.controller.release(interface, is_ingress, commitment, layer=layer)
