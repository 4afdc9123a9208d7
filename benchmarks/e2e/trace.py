"""Span tracer that works from outside the program.

From a table of layer-boundary callables the tracer wraps each one in
place, records one in-memory span per call, and restores every original
on :meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it exists.

* A class attribute (method, staticmethod, classmethod, property) is
  replaced on the class that defines it.
* A module-level function is replaced *by identity* in every loaded
  ``repro.*`` module (and any module named in ``also_patch``): callers do
  ``from repro.crypto.sealing import seal``, so patching only the defining
  module would miss them.
* A name that no longer resolves is skipped and listed in
  :attr:`Tracer.unresolved` — a later refactor must not be blocked by the
  tracer.

A span is ``(boundary index, start, end, parent span, lifecycle id,
value)``; ``value`` is an optional number read off the call's result (how
many events a scan returned, whether an admission was refused).  While
installed the tracer appends to flat numeric arrays, not to a list of
tuples: hundreds of thousands of live tuples make every young-generation
garbage collection slower, which would bill the program for the tracer's
memory.  :attr:`Tracer.spans` is built once, on uninstall.  Self time
of a span is its duration minus the time its child spans cover, so layer
self times plus the untraced residual (``driver``) sum to the timed wall
exactly.  A ``count_only`` boundary keeps a call counter and no span: for
callables so cheap that a span would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array
from dataclasses import dataclass

MEASURES = {
    "len": len,
    "int": int,
    "rejected": lambda decision: 0 if decision.admitted else 1,
}


@dataclass(frozen=True)
class Boundary:
    """One traced callable: ``module:qualname`` and the layer it belongs to."""

    target: str
    layer: str = ""  # default: the package under ``repro``
    count_only: bool = False
    measure: str = ""  # key into MEASURES, or empty

    def __post_init__(self) -> None:
        if not self.layer:
            object.__setattr__(self, "layer", self.target.split(":")[0].split(".")[1])

    @property
    def name(self) -> str:
        return self.target.split(":")[1]


B = Boundary
BOUNDARIES: tuple[Boundary, ...] = (
    # crypto: everything with a 2048-bit modexp, and the per-packet PRF
    B("repro.crypto.signatures:SigningKey.public"),
    B("repro.crypto.signatures:SigningKey.sign"),
    B("repro.crypto.signatures:verify"),
    B("repro.crypto.sealing:KeyPair.generate"),
    B("repro.crypto.sealing:seal"),
    B("repro.crypto.sealing:unseal"),
    B("repro.crypto.keys:derive_auth_key"),
    B("repro.crypto.prf:AesPrf.compute"),
    # ~1 us per call: a span would cost more than the hash itself
    B("repro.crypto.prf:Blake2Prf.compute", count_only=True),
    # ledger
    B("repro.ledger.executor:LedgerExecutor.submit"),
    B("repro.ledger.chain:Ledger.execute"),
    B("repro.ledger.chain:Ledger.events_since", measure="len"),
    # contracts: the base class lives in ledger.runtime, the work it
    # dispatches to is the contracts package
    B("repro.ledger.runtime:Contract.dispatch", layer="contracts"),
    # admission
    B("repro.admission.controller:AdmissionController.admit_issue", measure="rejected"),
    B("repro.admission.controller:AdmissionController.admit_reservation", measure="rejected"),
    B("repro.admission.controller:AdmissionController.release"),
    B("repro.admission.controller:AdmissionController.quote"),
    B("repro.admission.auction:WindowAuction.clear"),
    B("repro.admission.auction:uniform_price_clearing"),
    # pathadm
    B("repro.pathadm.protocol:PathAdmission.screen"),
    B("repro.pathadm.protocol:PathAdmission.rollback"),
    # marketdata
    B("repro.marketdata.indexer:MarketIndexer.sync", measure="int"),
    B("repro.marketdata.indexer:MarketIndexer.best"),
    B("repro.marketdata.indexer:MarketIndexer.candidates"),
    B("repro.marketdata.planner:PurchasePlanner.quote"),
    B("repro.marketdata.planner:PurchasePlanner.best"),
    # transfers
    B("repro.transfers.planner:TransferPlanner.book"),
    B("repro.transfers.planner:TransferPlanner.plan"),
    # controlplane: what the adapter calls, plus the per-request delivery
    B("repro.controlplane.workflow:MarketDeployment.new_host"),
    B("repro.controlplane.workflow:purchase_path"),
    B("repro.controlplane.workflow:execute_transfer"),
    B("repro.controlplane.hostclient:HostClient.atomic_buy_and_redeem"),
    B("repro.controlplane.hostclient:HostClient.place_bid"),
    B("repro.controlplane.hostclient:HostClient.await_settle"),
    B("repro.controlplane.hostclient:HostClient.acquire"),
    B("repro.controlplane.hostclient:HostClient.redeem_pair"),
    B("repro.controlplane.hostclient:HostClient.transfer"),
    B("repro.controlplane.hostclient:HostClient.collect_reservations", measure="len"),
    B("repro.controlplane.asclient:AsService.open_auction"),
    B("repro.controlplane.asclient:AsService.poll_bids"),
    B("repro.controlplane.asclient:AsService.settle_due_auctions"),
    B("repro.controlplane.asclient:AsService.poll_and_deliver"),
    B("repro.controlplane.asclient:AsService._deliver"),
    # hummingbird
    B("repro.hummingbird.source:HummingbirdSource.build_packet"),
    B("repro.hummingbird.router:HummingbirdRouter.process"),
    B("repro.hummingbird.mac:compute_flyover_mac"),
    B("repro.hummingbird.policing:PerInterfacePolicer.monitor"),
    # scion: the baseline router and the baseline source
    B("repro.scion.router:ScionRouter.process"),
    B("repro.hummingbird.source:ScionBestEffortSource.build_packet", layer="scion"),
    # netsim
    # netsim: run_until's self time is the whole layer (loop, links, nodes,
    # sources); spans on the two per-packet calls inside it would add no
    # attribution, only ~40% tracing overhead on the simulator workload
    B("repro.netsim.events:EventLoop.run_until"),
    B("repro.netsim.link:Link.send", count_only=True),
    B("repro.netsim.nodes:RouterNode.receive", count_only=True),
)

LAYERS = (
    "crypto", "ledger", "contracts", "admission", "pathadm", "marketdata",
    "transfers", "controlplane", "hummingbird", "scion", "netsim",
)


class Tracer:
    """Wraps the boundary callables while installed; collects spans."""

    def __init__(self, boundaries=BOUNDARIES, also_patch=(), clock=time.perf_counter):
        self.boundaries = tuple(boundaries)
        self.also_patch = tuple(also_patch)
        self.clock = clock
        self.spans: list = []  # filled by uninstall()
        self._positions: dict = {}  # boundary qualname -> positions in ``spans``
        self.counts = [0] * len(self.boundaries)
        self.unresolved: list[str] = []
        self._lifecycles: list = [None]  # code -> id; spans store the code
        self._lifecycle = 0
        self._stack = [-1]
        self._restore: list = []  # (owner, attribute name, original raw attribute)
        # one entry per span, in call order
        self._index, self._parent, self._code = array("i"), array("i"), array("i")
        self._start, self._end, self._value = array("d"), array("d"), array("d")

    def set_lifecycle(self, lifecycle_id) -> None:
        """Stamp ``lifecycle_id`` on every span from now on."""
        if lifecycle_id not in self._lifecycles:
            self._lifecycles.append(lifecycle_id)
        self._lifecycle = self._lifecycles.index(lifecycle_id)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for index, boundary in enumerate(self.boundaries):
            try:
                self._patch(index, boundary)
            except (ImportError, AttributeError):
                self.unresolved.append(boundary.target)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.spans = [
            (index, start, end, parent, self._lifecycles[code],
             None if math.isnan(value) else value)
            for index, start, end, parent, code, value in zip(
                self._index, self._start, self._end, self._parent, self._code, self._value
            )
        ]
        self._positions = {}
        for position, span in enumerate(self.spans):
            self._positions.setdefault(self.boundaries[span[0]].name, []).append(position)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, index: int, boundary: Boundary) -> None:
        module_name, qualname = boundary.target.split(":")
        module = importlib.import_module(module_name)
        parts = qualname.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0])
            wrapped = self._wrap(original, index, boundary)
            for holder in self._modules_to_scan():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, name, original, wrapped)
            return
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        name = parts[-1]
        for klass in owner.__mro__:  # patch where the attribute is defined
            if name in vars(klass):
                owner = klass
                break
        else:
            raise AttributeError(boundary.target)
        raw = vars(owner)[name]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, index, boundary))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, index, boundary))
        elif isinstance(raw, property):
            wrapped = property(
                self._wrap(raw.fget, index, boundary), raw.fset, raw.fdel, raw.__doc__
            )
        else:
            wrapped = self._wrap(raw, index, boundary)
        self._set(owner, name, raw, wrapped)

    def _modules_to_scan(self) -> list:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        return modules + list(self.also_patch)

    def _set(self, owner, name: str, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def _wrap(self, function, index: int, boundary: Boundary):
        if boundary.count_only:
            counts = self.counts

            @functools.wraps(function)
            def counted(*args, **kwargs):
                counts[index] += 1
                return function(*args, **kwargs)

            return counted

        stack, clock, tracer = self._stack, self.clock, self
        indexes, parents, codes = self._index, self._parent, self._code
        starts, ends, values = self._start, self._end, self._value
        measure = MEASURES[boundary.measure] if boundary.measure else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            position = len(indexes)
            indexes.append(index)
            parents.append(stack[-1])
            codes.append(tracer._lifecycle)
            values.append(math.nan)
            ends.append(0.0)
            stack.append(position)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
                if measure is not None:
                    values[position] = measure(result)
                return result
            finally:
                ends[position] = clock()
                stack.pop()

        return traced

    # -- reading the spans ---------------------------------------------------

    def self_times(self, duration=lambda start, end: end - start) -> list[float]:
        """Per span: duration minus the time its direct children cover.

        ``duration`` maps two clock readings to the time between them that
        counts (the harness cuts its own interruptions out).
        """
        lengths = [duration(start, end) for _, start, end, _, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for length, (_, _, _, parent, _, _) in zip(lengths, self.spans):
            if parent >= 0:
                covered[parent] += length
        return [length - inside for length, inside in zip(lengths, covered)]

    def layer_totals(self, self_times=None) -> dict:
        """``layer -> {"self_s", "calls"}`` over every span and counter."""
        if self_times is None:
            self_times = self.self_times()
        totals = {}
        for boundary in self.boundaries:
            totals.setdefault(boundary.layer, {"self_s": 0.0, "calls": 0})
        for (index, *_), self_time in zip(self.spans, self_times):
            entry = totals[self.boundaries[index].layer]
            entry["self_s"] += self_time
            entry["calls"] += 1
        for boundary, count in zip(self.boundaries, self.counts):
            totals[boundary.layer]["calls"] += count
        return totals

    def positions(self, name: str) -> list:
        """Where in :attr:`spans` the boundary with qualname ``name`` recorded."""
        return self._positions.get(name, [])

    def select(self, name: str) -> list:
        """Every span of the boundary whose qualname is ``name``."""
        return [self.spans[position] for position in self.positions(name)]

    def calls(self, name: str) -> int:
        counted = sum(
            count
            for boundary, count in zip(self.boundaries, self.counts)
            if boundary.name == name
        )
        return counted + len(self.positions(name))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for position, (index, start, end, parent, lifecycle, value) in enumerate(self.spans):
                boundary = self.boundaries[index]
                out.write(
                    json.dumps(
                        {
                            "span": position,
                            "name": boundary.name,
                            "layer": boundary.layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "lifecycle": lifecycle,
                            "value": value,
                        }
                    )
                    + "\n"
                )
