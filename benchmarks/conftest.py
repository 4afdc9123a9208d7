"""Benchmark harness helpers: report files, per-op timing, ``--json`` rows."""

from __future__ import annotations

import json
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "results"


def report(name: str, text: str) -> None:
    """Print a benchmark report and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def measure_op(fn, samples: int = 500, warmup: int = 10) -> dict:
    """Per-call latency samples -> ``{ops_per_sec, p50, p99}`` (seconds).

    Times each call individually so the percentiles are real per-op
    latencies, not a mean split N ways.
    """
    for _ in range(warmup):
        fn()
    latencies = []
    began = time.perf_counter()
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        latencies.append(time.perf_counter() - t0)
    total = time.perf_counter() - began
    latencies.sort()
    return {
        "ops_per_sec": samples / total,
        "p50": latencies[(samples - 1) // 2],
        "p99": latencies[min(samples - 1, round(0.99 * (samples - 1)))],
    }


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


def bench_result(
    name: str,
    params: dict,
    ops_per_sec: float | None = None,
    p50: float | None = None,
    p99: float | None = None,
) -> dict:
    """One machine-readable benchmark row (the ``--json`` schema)."""
    return {
        "name": name,
        "params": dict(params),
        "ops_per_sec": ops_per_sec,
        "p50": p50,
        "p99": p99,
    }


def write_bench_json(path, results: list[dict]) -> pathlib.Path | None:
    """Persist ``--json`` rows; a no-op when no path was requested."""
    if not path:
        return None
    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"bench json: {target}")
    return target
