"""The paired A/B timing both telemetry-overhead measurements share."""

from __future__ import annotations

import time


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
