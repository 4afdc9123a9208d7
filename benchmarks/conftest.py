"""The paired A/B timing both telemetry-overhead measurements share, and
the live / null instrument arms they compare."""

from __future__ import annotations

import time

from repro.telemetry.registry import _NULL_INSTRUMENT, Counter, Gauge, Histogram, _Family

_LIVE = (_Family, Counter, Gauge, Histogram)


def _nulled(value):
    """``value`` with the null instrument in place of every live family or
    child in it, a dict's values and a tuple's items included."""
    if isinstance(value, _LIVE):
        return _NULL_INSTRUMENT
    if isinstance(value, dict):
        return {key: _nulled(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_nulled(item) for item in value)
    return value


def instrument_arms(*components):
    """``(observed, silent)``: two calls that set every instrument-valued
    attribute of ``components`` — as built under a live registry, or with
    the null instrument in place of each live one.

    Both arms run the same code over the same calendars, caches and memory
    layout; they differ only in what the instruments do.  Build the arms
    after one op, so a cache filled on first use (the admission
    controller's per-interface children) already holds its instruments.
    The attribute writes cost both arms the same and cancel out.
    """
    observed, silent = [], []
    for component in components:
        state = vars(component)
        for name, value in state.items():
            null = _nulled(value)
            if null != value:
                observed.append((state, name, value))
                silent.append((state, name, null))

    def installer(settings):
        def install():
            for state, name, value in settings:
                state[name] = value

        return install

    return installer(observed), installer(silent)


def measure_ab(run_on, run_off, samples: int = 4000, warmup: int = 50) -> dict:
    """Paired A/B per-op comparison: ``{p50_on, p50_off, overhead}``.

    Times the arms as back-to-back pairs, alternating which goes first,
    and estimates ``overhead`` as the median per-pair latency difference
    over the off arm's median latency.  Pairing matters twice over here:
    machines that throttle in multi-second windows make two *separate*
    benchmark runs incomparable (whichever run draws the slow window
    loses, regardless of the code), and even chunk-interleaved arms keep
    percent-level drift between one chunk and the next.  Differencing
    adjacent ops cancels both, and the median shrugs off GC and
    scheduler spikes.
    """
    for _ in range(warmup):
        run_on()
        run_off()
    on_first = True
    diffs: list[float] = []
    ons: list[float] = []
    offs: list[float] = []
    for _ in range(samples):
        first, second = (run_on, run_off) if on_first else (run_off, run_on)
        t0 = time.perf_counter()
        first()
        t1 = time.perf_counter()
        second()
        t2 = time.perf_counter()
        on, off = (t1 - t0, t2 - t1) if on_first else (t2 - t1, t1 - t0)
        on_first = not on_first
        diffs.append(on - off)
        ons.append(on)
        offs.append(off)
    diffs.sort()
    ons.sort()
    offs.sort()
    mid = (samples - 1) // 2
    return {
        "p50_on": ons[mid],
        "p50_off": offs[mid],
        "overhead": diffs[mid] / offs[mid],
    }
