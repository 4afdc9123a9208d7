#!/usr/bin/env python3
"""The perf gate: every per-layer bar, the telemetry overhead, the e2e floors.

    python tools/perf_guard.py      # no options; exit 1 when any gate fails

Every gate runs, even after an earlier one failed, and each timed number is
the median of ``REPEATS`` runs in this process:

* **layer bars** — each ``benchmarks/bench_*.py`` in ``LAYERS`` returns its
  gated numbers from ``measure()``, at the one size its docstring states,
  and each must reach the minimum its module's ``BARS`` names (indexer
  speedup, auction clearing, reclamation scans, transfer planning, shard
  widths answering alike);
* **telemetry overhead** — each ``AB_ROWS`` measurement (the admission
  controller's admit, ``bench_path_admission``'s 2-hop cycle) drives ONE
  component built under a live :class:`~repro.telemetry.MetricsRegistry`,
  swapping its instruments for the null one between back-to-back ops
  (``benchmarks.conftest.instrument_arms``), and reports the median
  per-pair latency difference; the live arm may be at most
  ``MAX_OVERHEAD`` slower.  The paired design is the point: shared runners
  throttle the CPU in multi-second windows, so comparing two *separate*
  runs (telemetry on vs off) measures which run drew the slow window, not
  the code;
* **end-to-end floors** — one run of a whole-lifecycle benchmark workload
  each (``benchmarks/e2e/run.py``); the run must check out correct, fail no
  operation and report its metric at or above the floor per calibrated
  second — the benchmark rescales wall time by a machine-speed sampler, so a
  floor means the same on a throttled runner.  Nobody types a floor: it is
  ``E2E_FLOOR_SHARE`` of what the newest committed ``BENCH_<pr>.json`` (the
  perf trajectory every perf PR extends) recorded for that row, so a PR that
  moves a rate moves its floor in the same commit.  The rows: ``posted_4hop``
  (the paper's Fig. 4 purchase with a fresh host each time) and
  ``transfer_3hop`` / ``auction_24bid`` lifecycles per second,
  ``forward_4hop`` packets per second through four AES routers, and
  ``flood_sim_4hop`` packets per second through the event simulator at the
  BLAKE2 PRF (a reserved flow against a flood).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks import (  # noqa: E402
    bench_admission,
    bench_auction,
    bench_indexer,
    bench_path_admission,
    bench_reclaim,
    bench_transfers,
)
from repro.telemetry import MetricsRegistry, set_registry  # noqa: E402

REPEATS = 3
LAYERS = (
    bench_indexer,
    bench_auction,
    bench_reclaim,
    bench_transfers,
    bench_admission,
)
AB_ROWS = (
    ("admission controller admit", bench_admission.controller_admit_ab),
    ("2-hop path cycle", bench_path_admission.path_admission_ab),
)
MAX_OVERHEAD = 0.05

# (workload, end-to-end metric) rows guarded against the committed trajectory
E2E_GUARDED = [
    ("posted_4hop", "lifecycles_per_s"),
    ("forward_4hop", "pkts_per_s"),
    ("transfer_3hop", "lifecycles_per_s"),
    ("auction_24bid", "lifecycles_per_s"),
    ("flood_sim_4hop", "pkts_per_s"),
]
# Run-to-run spread is a few percent in calibrated seconds; a row at 60% of
# its recorded rate has lost what the last perf PRs on it gained.
E2E_FLOOR_SHARE = 0.6


def layers_ok() -> bool:
    """Every layer's median numbers at or above its bars."""
    ok = True
    for layer in LAYERS:
        began = time.perf_counter()
        runs = [layer.measure() for _ in range(REPEATS)]
        print(f"== {layer.__name__} ({time.perf_counter() - began:.1f} s)")
        for name, bar in layer.BARS.items():
            value = statistics.median(run[name] for run in runs)
            passed = value >= bar
            print(f"{name}: {value:,.1f} (bar {bar:,.0f}) {'OK' if passed else 'FAIL'}")
            ok &= passed
    return ok


def telemetry_ok() -> bool:
    """Every A/B row's median overhead, each run under a fresh live registry."""
    ok = True
    for label, ab in AB_ROWS:
        print(f"== telemetry overhead: {label}")
        overheads = []
        for _ in range(REPEATS):
            previous = set_registry(MetricsRegistry())
            try:
                row = ab()
            finally:
                set_registry(previous)
            overheads.append(row["overhead"])
            print(f"paired run: {row['overhead']:+.1%} (p50 on {row['p50_on'] * 1e6:,.1f} us"
                  f" / off {row['p50_off'] * 1e6:,.1f} us)")
        overhead = statistics.median(overheads)
        passed = overhead <= MAX_OVERHEAD
        print(f"median: {overhead:+.1%} (bar {MAX_OVERHEAD:.0%}) {'OK' if passed else 'FAIL'}")
        ok &= passed
    return ok


def newest_bench(root: pathlib.Path = REPO_ROOT) -> pathlib.Path:
    """The committed ``BENCH_<pr>.json`` with the highest PR number."""
    return max(root.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def e2e_floors(bench: pathlib.Path) -> list[tuple[str, str, float]]:
    """(workload, metric, floor) for every guarded row recorded in ``bench``."""
    workloads = json.loads(bench.read_text())["workloads"]
    return [
        (workload, metric, E2E_FLOOR_SHARE * workloads[workload]["end_to_end"][metric]["value"])
        for workload, metric in E2E_GUARDED
    ]


def _e2e_floor_ok(workload: str, metric: str, floor: float) -> bool:
    """Run the e2e workload once; its last stdout line is the result object."""
    print(f"== {workload} {metric} floor (benchmarks/e2e/run.py)")
    finished = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "12", "--seconds", "8", "--trace", "0"],
        check=True, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    rate = result["metrics"][metric]["value"]
    print(f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
          f"{metric}={rate:,.2f} (floor {floor:,.2f})")
    if result["correct"] is True and result["failed"] == 0 and rate >= floor:
        print("OK")
        return True
    print(f"FAIL: {workload} is incorrect, failing operations or below its floor",
          file=sys.stderr)
    return False


def e2e_ok() -> bool:
    bench = newest_bench()
    print(f"== end-to-end floors: {E2E_FLOOR_SHARE:.0%} of {bench.name}")
    return all([_e2e_floor_ok(*row) for row in e2e_floors(bench)])


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)  # in order with run.py's stderr
    began = time.perf_counter()
    results = [layers_ok(), telemetry_ok(), e2e_ok()]
    print(f"perf guard {'passed' if all(results) else 'FAILED'} in {time.perf_counter() - began:.0f} s")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
