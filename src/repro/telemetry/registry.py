"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Design goals:

* **lock-cheap** — instruments are plain-attribute updates; the registry is
  only locked when a *new* family or label-child is created, never on the
  hot observation path.
* **fixed-bucket histograms** — one tuple of float bucket edges,
  :data:`BUCKETS`, shared by every family; ``observe`` is one bisect plus
  three scalar adds, and a quantile is one running sum over the counts
  plus one bisect.
* **labeled** — families fan out into children via ``.labels(...)``
  (AS / interface / direction / whatever the caller declares), with a
  cardinality guard so an unbounded label set (e.g. a per-packet id) fails
  fast instead of silently eating memory.
* **one way to be silent** — :data:`NULL_REGISTRY` hands out one no-op
  singleton, and instrumented code calls it exactly as it calls a live
  instrument: no subsystem asks whether it is observed, so an observed
  run and an unobserved one take the same branches.

The *active* registry is process-wide: :func:`get_registry` returns the
null registry unless a caller installed a live one via :func:`set_registry`
or :class:`repro.telemetry.experiment.ExperimentTelemetry`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "BUCKETS",
    "MAX_LABEL_SETS",
    "get_registry",
    "set_registry",
]


class LabelCardinalityError(RuntimeError):
    """A metric family exceeded its label-set budget.

    Raised instead of allocating: unbounded label values (packet ids,
    timestamps, ...) are a bug in the instrumentation, not load.
    """


#: The latency-flavoured bucket edges of every histogram, in seconds (1 us .. 10 s).
BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Per-family budget of distinct label combinations.
MAX_LABEL_SETS = 1024


class Counter:
    """Monotonically increasing count (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram child: bucket counts + sum + count.

    ``bounds`` are the *upper* bucket edges; an observation lands in the
    first bucket whose bound is >= the value, with one overflow bucket past
    the last bound (so ``counts`` has ``len(bounds) + 1`` slots).  The hot
    path bisects the edge tuple.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (q in [0, 1]) from the bucket counts.

        Linear interpolation inside the selected bucket; the overflow
        bucket reports its lower bound (the last finite edge).  Returns
        ``nan`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = list(itertools.accumulate(self.counts))
        index = bisect.bisect_left(cumulative, rank)
        if index >= len(self.bounds):  # overflow bucket
            return self.bounds[-1]
        lower = self.bounds[index - 1] if index > 0 else 0.0
        upper = self.bounds[index]
        in_bucket = self.counts[index]
        if in_bucket == 0:
            return upper
        below = cumulative[index - 1] if index > 0 else 0
        fraction = (rank - below) / in_bucket
        return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)


class _Family:
    """A named, labeled metric family of one ``kind``; ``child`` builds the
    instrument of each label combination."""

    def __init__(
        self, kind: str, child, name: str, help: str, labelnames: tuple[str, ...]
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._child = child
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def labels(self, *values):
        """Return the child for this label combination, creating it once."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= MAX_LABEL_SETS:
                        raise LabelCardinalityError(
                            f"metric {self.name!r} exceeded "
                            f"{MAX_LABEL_SETS} label sets; labels "
                            f"{self.labelnames} look unbounded"
                        )
                    child = self._child()
                    self._children[key] = child
        return child

    def items(self) -> Iterator[tuple[tuple, object]]:
        yield from sorted(self._children.items())


# A family's kind -> what builds one labeled child of it.
_CHILDREN = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": functools.partial(Histogram, BUCKETS),
}


class MetricsRegistry:
    """Container of metric families, keyed by name.

    Re-declaring a family with the same name and matching schema returns
    the existing one (so modules can declare instruments independently);
    a schema mismatch raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _declare(self, kind: str, name: str, help: str, labelnames) -> _Family:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} re-declared with a different schema"
                    )
                return existing
            family = _Family(kind, _CHILDREN[kind], name, help, labelnames)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        return self._declare("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        return self._declare("gauge", name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        return self._declare("histogram", name, help, labelnames)

    def families(self) -> Iterator[_Family]:
        yield from (self._families[name] for name in sorted(self._families))


class _NullInstrument:
    """No-op family and child alike: ``labels`` returns itself, and every
    write is an empty call with no state behind it."""

    __slots__ = ()

    def labels(self, *values) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The unobserved registry: hands out the shared no-op instrument."""

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT


NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process-wide active registry: the null one unless a live one is installed."""
    return _active


def set_registry(registry: MetricsRegistry | NullRegistry) -> MetricsRegistry | NullRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = registry
    return previous
