"""The per-AS admission authority the control plane consults.

One :class:`AdmissionController` guards every interface of one AS.  It
keeps **two calendar layers** per (interface, direction):

* the **issued** layer counts bandwidth the AS has minted as assets — it
  stops the AS from overselling a physical link across overlapping
  windows, however the assets are later split or resold;
* the **active** layer counts delivered reservations — it is the physical
  backstop (and catches reservations granted outside the market, e.g. by
  simulation scenarios or a reconfigured, shrunken capacity).

Both layers share the interface's physical capacity; the policy decides
how the capacity is handed out, and the pricer turns the issued-layer
utilization into the scarcity-adjusted listing price.
"""

from __future__ import annotations

import time

from repro.admission.auction import WindowAuction
from repro.admission.calendar import CapacityCalendar, Commitment, _check_window
from repro.admission.policy import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionRequest,
    FirstComeFirstServed,
)
from repro.admission.pricing import FlatPricer, Pricer
from repro.telemetry import get_registry
from repro.telemetry.tracing import current_trace

ISSUED = "issued"
ACTIVE = "active"

AUCTION = "auction"
POSTED = "posted"


class AdmissionController:
    """Capacity calendars + policy + pricing for all interfaces of one AS.

    >>> controller = AdmissionController(capacity_kbps=1000)
    >>> decision = controller.admit_issue(1, True, 600, 0, 3600)
    >>> decision.admitted
    True
    >>> controller.admit_issue(1, True, 600, 0, 3600).admitted  # oversell
    False
    >>> controller.admit_issue(1, False, 600, 0, 3600).admitted # other side
    True
    """

    def __init__(
        self,
        capacity_kbps: int,
        policy: AdmissionPolicy | None = None,
        pricer: Pricer | None = None,
        capacities: dict[tuple[int, bool], int] | None = None,
        shard_seconds: float | None = None,
        auction_interfaces: bool | set[tuple[int, bool]] | None = None,
        telemetry: bool | None = None,
    ) -> None:
        """Configure the admission authority for one AS.

        Args:
            capacity_kbps: default per-interface-direction capacity.
            policy: allocation discipline (default
                :class:`~repro.admission.policy.FirstComeFirstServed`).
            pricer: utilization -> price multiplier (default
                :class:`~repro.admission.pricing.FlatPricer`).
            capacities: per-``(interface, is_ingress)`` capacity overrides.
            shard_seconds: shard width of every layer's
                :class:`CapacityCalendar`; ``None`` is the one-unbounded-shard
                geometry — the default, and the right choice below ~10^5
                commitments per interface direction.
            auction_interfaces: which interface directions allocate windows
                by sealed-bid auction instead of posted prices — ``None``
                (posted everywhere, the default), ``True`` (auction
                everywhere), or a set of ``(interface, is_ingress)`` pairs.
            telemetry: ``False`` disarms this controller's per-admit
                instrumentation even when the process registry is live —
                the per-op path is then identical to running with
                ``REPRO_TELEMETRY`` unset.  ``None`` (default) follows the
                registry; ``True`` cannot force metrics on a null
                registry.  ``tools/perf_guard.py`` uses the override to
                benchmark an armed and a disarmed controller side by side
                in one process.

        Raises:
            ValueError: non-positive capacity or shard width.
        """
        if capacity_kbps <= 0:
            raise ValueError("capacity must be positive")
        if shard_seconds is not None and not shard_seconds > 0:
            raise ValueError("shard width must be positive")
        self.default_capacity_kbps = int(capacity_kbps)
        self.policy = policy if policy is not None else FirstComeFirstServed()
        self.pricer = pricer if pricer is not None else FlatPricer()
        self.shard_seconds = None if shard_seconds is None else float(shard_seconds)
        self._capacities = dict(capacities) if capacities else {}
        self._calendars: dict[tuple[str, int, bool], CapacityCalendar] = {}
        if auction_interfaces is True:
            self._auction_interfaces: bool | set[tuple[int, bool]] = True
        elif auction_interfaces:
            self._auction_interfaces = set(auction_interfaces)
        else:
            self._auction_interfaces = set()
        self._auctions: dict[tuple[int, bool, float, float], WindowAuction] = {}
        self.rejections = 0
        registry = get_registry()
        self._telemetry = registry.enabled if telemetry is None else (
            bool(telemetry) and registry.enabled
        )
        self._m_decisions = registry.counter(
            "admission_decisions_total",
            "Admission decisions by layer, interface, direction, and outcome.",
            ("layer", "interface", "direction", "outcome"),
        )
        # The per-admit hot cache: (calendar, reject child, admit child)
        # per (layer, interface, direction), so the one dict lookup
        # _admit pays anyway (it needs the calendar) also yields the
        # decision counters.  The telemetry branch's *marginal* cost is
        # then a tick increment, a conditional child pick, and a bare
        # attribute add — it never re-derives label strings or re-enters
        # Family.labels(); the budget is <5 % over the uninstrumented
        # path (enforced by tools/perf_guard.py).
        self._hot: dict[tuple[str, int, bool], tuple] = {}
        admit_seconds = registry.histogram(
            "admission_admit_seconds",
            "Wall-clock latency of one policy.admit call (commit included), "
            "sampled 1 in 16 admits.",
            ("layer",),
        )
        self._m_admit_seconds = {
            ISSUED: admit_seconds.labels(ISSUED),
            ACTIVE: admit_seconds.labels(ACTIVE),
        }
        # Latency is *sampled*: two perf_counter() calls plus a histogram
        # observe per admit would alone eat most of the <5 % budget, and
        # the latency distribution doesn't need every data point the way
        # the decision counters do.  Starting at -1 samples the very first
        # admit, so short runs still populate the histogram.
        self._admit_tick = -1
        self._m_expired = registry.counter(
            "admission_expired_total", "Commitments released by expire()."
        ).labels()
        self._m_shards_dropped = registry.counter(
            "admission_shards_dropped_total",
            "Whole calendar shards dropped in O(1) by sharded expiry.",
        ).labels()

    # -- calendars ----------------------------------------------------------------

    def capacity_kbps(self, interface: int, is_ingress: bool) -> int:
        """Physical capacity of one interface direction, in kbps."""
        return self._capacities.get((interface, is_ingress), self.default_capacity_kbps)

    def calendar(
        self, interface: int, is_ingress: bool, layer: str = ISSUED
    ) -> CapacityCalendar:
        """The capacity calendar of one interface direction and layer.

        Args:
            interface: AS interface identifier.
            is_ingress: direction selector (each direction has its own
                calendars).
            layer: :data:`ISSUED` (minted assets) or :data:`ACTIVE`
                (delivered reservations).

        Returns:
            The lazily created calendar, at the controller's ``shard_seconds``.

        Raises:
            ValueError: unknown ``layer``.
        """
        if layer not in (ISSUED, ACTIVE):
            raise ValueError(f"unknown calendar layer {layer!r}")
        key = (layer, interface, is_ingress)
        found = self._calendars.get(key)
        if found is None:
            found = self._calendars[key] = CapacityCalendar(
                self.capacity_kbps(interface, is_ingress), self.shard_seconds
            )
        return found

    # -- admission ----------------------------------------------------------------

    def admit_issue(
        self,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: float,
        end: float,
        tag: str = "",
    ) -> AdmissionDecision:
        """May the AS mint (and list) this much more bandwidth here?

        Args:
            interface, is_ingress: the interface direction being sold.
            bandwidth_kbps: bandwidth of the would-be asset.
            start, end: the asset's validity window (seconds).
            tag: free-form owner label recorded on the commitment.

        Returns:
            An :class:`~repro.admission.policy.AdmissionDecision`; when
            ``admitted``, its ``commitment`` holds the issued-calendar
            claim (pass it to :meth:`release` if the mint later fails).
        """
        return self._admit(ISSUED, interface, is_ingress, bandwidth_kbps, start, end, tag)

    def admit_reservation(
        self,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: float,
        end: float,
        tag: str = "",
    ) -> AdmissionDecision:
        """May a delivered reservation claim this much live bandwidth here?

        Same contract as :meth:`admit_issue`, against the *active* layer
        (the physical backstop for delivered reservations and direct
        grants).
        """
        return self._admit(ACTIVE, interface, is_ingress, bandwidth_kbps, start, end, tag)

    def _admit(
        self,
        layer: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: float,
        end: float,
        tag: str,
    ) -> AdmissionDecision:
        entry = self._hot.get((layer, interface, is_ingress))
        if entry is None:
            entry = self._hot_entry(layer, interface, is_ingress)
        calendar, reject_child, admit_child = entry
        request = AdmissionRequest(int(bandwidth_kbps), start, end, buyer=tag)
        if self._telemetry:
            self._admit_tick = tick = self._admit_tick + 1
            if tick & 15:  # unsampled admit: count the decision only
                decision = self.policy.admit(calendar, request)
            else:
                began = time.perf_counter()
                decision = self.policy.admit(calendar, request)
                self._m_admit_seconds[layer].observe(time.perf_counter() - began)
            (admit_child if decision.admitted else reject_child).value += 1.0
        else:
            decision = self.policy.admit(calendar, request)
        if not decision.admitted:
            self.rejections += 1
        trace = current_trace()
        if trace is not None:
            trace.event(
                "admission.decision",
                layer=layer,
                interface=interface,
                ingress=is_ingress,
                bandwidth_kbps=int(bandwidth_kbps),
                admitted=decision.admitted,
                reason=decision.reason,
            )
        return decision

    def _hot_entry(self, layer: str, interface: int, is_ingress: bool) -> tuple:
        calendar = self.calendar(interface, is_ingress, layer)
        direction = "ingress" if is_ingress else "egress"
        entry = (
            calendar,
            self._m_decisions.labels(layer, interface, direction, "reject"),
            self._m_decisions.labels(layer, interface, direction, "admit"),
        )
        self._hot[(layer, interface, is_ingress)] = entry
        return entry

    def release(
        self, interface: int, is_ingress: bool, commitment: Commitment, layer: str = ISSUED
    ) -> None:
        """Hand an admitted commitment's bandwidth back to its calendar.

        Raises:
            KeyError: the commitment is not (or no longer) tracked there.
        """
        self.calendar(interface, is_ingress, layer).release(commitment.commitment_id)

    def expire(self, now: float) -> int:
        """Garbage-collect ended commitments in every calendar, both layers.

        Returns:
            The number of commitments released.
        """
        released = 0
        shards_dropped = 0
        for calendar in self._calendars.values():
            before = calendar.shards_dropped
            released += calendar.expire(now)
            shards_dropped += calendar.shards_dropped - before
        if self._telemetry:
            if released:
                self._m_expired.inc(released)
            if shards_dropped:
                self._m_shards_dropped.inc(shards_dropped)
        return released

    def record_capacity_gauges(
        self, start: float, end: float, owner: str = ""
    ) -> None:
        """Refresh per-interface utilization/headroom gauges over a window.

        Calendar scans are too costly for the per-admit hot path, so the
        gauges are point-in-time: call this at scenario checkpoints (or
        before exporting) to publish the current picture.  ``owner`` keeps
        several controllers apart in one registry (e.g. the per-AS label).
        A no-op when telemetry is disabled.
        """
        registry = get_registry()
        if not registry.enabled:
            return
        utilization_gauge = registry.gauge(
            "admission_utilization_ratio",
            "Peak committed fraction of capacity over the sampled window.",
            ("owner", "layer", "interface", "direction"),
        )
        headroom_gauge = registry.gauge(
            "admission_headroom_kbps",
            "Remaining bandwidth over the sampled window, in kbps.",
            ("owner", "layer", "interface", "direction"),
        )
        for (layer, interface, is_ingress), calendar in self._calendars.items():
            direction = "ingress" if is_ingress else "egress"
            utilization_gauge.labels(owner, layer, interface, direction).set(
                calendar.utilization(start, end)
            )
            headroom_gauge.labels(owner, layer, interface, direction).set(
                calendar.headroom(start, end)
            )

    # -- auctions -----------------------------------------------------------------

    def allocation_mode(self, interface: int, is_ingress: bool) -> str:
        """How this interface direction hands out windows.

        Returns:
            :data:`AUCTION` when the direction is in
            ``auction_interfaces``, else :data:`POSTED`.
        """
        if self._auction_interfaces is True:
            return AUCTION
        if (interface, is_ingress) in self._auction_interfaces:
            return AUCTION
        return POSTED

    def share_cap_kbps(self, interface: int, is_ingress: bool) -> int | None:
        """Per-bidder award cap seeding an auction's clearing rule.

        Returns:
            ``max_fraction * capacity`` when the controller's policy
            carries a share cap — :class:`~repro.admission.policy.ProportionalShare`,
            or an :class:`~repro.admission.policy.OverbookingPolicy`
            constructed with ``max_fraction`` (an ``isinstance`` check here
            used to drop the cap silently the moment an AS switched to
            overbooking, handing auction bidders an uncapped book) — else
            ``None`` (no cap).
        """
        max_fraction = getattr(self.policy, "max_fraction", None)
        if max_fraction:
            return int(max_fraction * self.capacity_kbps(interface, is_ingress))
        return None

    def open_auction(
        self,
        interface: int,
        is_ingress: bool,
        offered_kbps: int,
        start: float,
        end: float,
        base_price_micromist: int,
        min_fragment_kbps: int = 0,
    ) -> WindowAuction:
        """Open the sealed-bid book for one window of one interface.

        The reserve price is the scarcity-adjusted posted quote for the
        window (so an auction can never clear below what the posted market
        would have charged) and the share cap comes from the controller's
        :class:`~repro.admission.policy.ProportionalShare` policy when one
        is installed.  Capacity accounting is the caller's: issuing the
        auctioned asset claims the issued calendar exactly like a posted
        listing does.

        Args:
            interface, is_ingress: the interface direction being auctioned.
            offered_kbps: bandwidth put up for auction.
            start, end: the calendar window (seconds).
            base_price_micromist: base unit price the reserve is scaled
                from.
            min_fragment_kbps: the asset's minimum bandwidth (clearing
                refuses to strand a smaller remainder).

        Returns:
            The registered :class:`~repro.admission.auction.WindowAuction`.

        Raises:
            ValueError: the direction is in posted mode, or an auction for
                this exact window is already open.
        """
        if self.allocation_mode(interface, is_ingress) != AUCTION:
            raise ValueError(
                f"interface {interface} "
                f"({'ingress' if is_ingress else 'egress'}) allocates by "
                "posted price; enable it in auction_interfaces first"
            )
        key = (interface, is_ingress, float(start), float(end))
        if key in self._auctions:
            raise ValueError(f"auction already open for window {key}")
        auction = WindowAuction(
            interface=interface,
            is_ingress=is_ingress,
            start=float(start),
            end=float(end),
            offered_kbps=int(offered_kbps),
            reserve_micromist=self.quote(
                base_price_micromist, interface, is_ingress, start, end
            ),
            share_cap_kbps=self.share_cap_kbps(interface, is_ingress),
            min_fragment_kbps=int(min_fragment_kbps),
        )
        self._auctions[key] = auction
        return auction

    def auction_for(
        self, interface: int, is_ingress: bool, start: float, end: float
    ) -> WindowAuction | None:
        """The open auction for this exact window, or ``None``."""
        return self._auctions.get((interface, is_ingress, float(start), float(end)))

    def close_auction(
        self, interface: int, is_ingress: bool, start: float, end: float
    ) -> WindowAuction | None:
        """Deregister a settled auction's book; returns it (or ``None``)."""
        return self._auctions.pop(
            (interface, is_ingress, float(start), float(end)), None
        )

    def settle_supply(
        self,
        interface: int,
        is_ingress: bool,
        start: float,
        end: float,
        offered_kbps: int,
    ) -> int:
        """Bandwidth actually sellable at settle time.

        The auctioned asset cleared the *issued* calendar when it was
        minted, but the *active* calendar is the physical backstop: direct
        grants between open and settle can consume live capacity the
        auction assumed it had.  The supply is therefore clamped to the
        active layer's remaining headroom over the window — a window that
        lost headroom before settle clears fewer (possibly zero) winners
        instead of overselling.

        Returns:
            ``max(0, min(offered_kbps, active-layer headroom))``.
        """
        headroom = self.calendar(interface, is_ingress, ACTIVE).headroom(start, end)
        return max(0, min(int(offered_kbps), int(headroom)))

    # -- pricing ------------------------------------------------------------------

    def utilization(
        self, interface: int, is_ingress: bool, start: float, end: float, layer: str = ISSUED
    ) -> float:
        """Peak committed fraction of capacity over the window, in [0, ...).

        Returns 0.0 for interface directions that never saw a commitment
        (their calendars are not materialized just to answer a read), after
        refusing the same windows a calendar refuses.
        """
        _check_window(start, end)
        key = (layer, interface, is_ingress)
        if key not in self._calendars:
            return 0.0
        return self._calendars[key].utilization(start, end)

    def quote(
        self,
        base_micromist_per_unit: int,
        interface: int,
        is_ingress: bool,
        start: float,
        end: float,
    ) -> int:
        """Scarcity-adjusted unit price for a listing over this window.

        Scarcity is the *worse* of the two layers: normally the issued
        calendar leads (assets are minted before reservations activate),
        but direct grants only show up in the active one.
        """
        utilization = max(
            self.utilization(interface, is_ingress, start, end, ISSUED),
            self.utilization(interface, is_ingress, start, end, ACTIVE),
        )
        return self.pricer.price(base_micromist_per_unit, utilization)
