#!/usr/bin/env python3
"""CI perf guard: the telemetry hooks must stay off the hot path.

Runs each guarded benchmark in ``--ab-overhead`` mode: the bench drives
ONE component, flipping its telemetry flag between an armed op and a
disarmed op (whose per-op path is exactly the null-registry path), and
reports the median per-pair latency difference as the overhead.  Fails
when the armed arm is more than ``--threshold`` slower, i.e. when
instrumenting a hot path starts costing real throughput.

The paired design is the point: shared CI runners throttle the CPU in
multi-second windows, so comparing two *separate* bench runs (telemetry
on vs off via the environment) measures which run drew the slow window,
not the code — and even in-process arms drift percent-level apart when
run as separate blocks.  Back-to-back pairs on shared state cancel the
machine entirely; the residual per-run spread is well under a percent.
With ``--repeats`` > 1 the median overhead across repeats is enforced.

Guarded rows:

* ``admission_controller_admit_ab`` — single-interface admits
  (``bench_admission.py``);
* ``path_admission_admit_ab`` at 2 hops, default shard width — full
  path-wide screen/commit/rollback cycles (``bench_path_admission.py``).

Besides the A/B overhead rows, ``FLOOR_TARGETS`` enforces absolute
throughput floors: the named row of a plain ``--smoke --json`` run must
report ``ops_per_sec`` at or above the floor (no paired design — these
floors carry enough headroom to absorb shared-runner noise).

* ``transfer_plan`` — full deadline-transfer plans per second over the
  synthetic staggered book (``bench_transfers.py``).

Last come the end-to-end floors, one run of a whole-lifecycle benchmark
workload each (``benchmarks/e2e/run.py``); the run must check out correct,
fail no operation and report its metric at or above the floor per calibrated
second — the benchmark rescales wall time by a machine-speed sampler, so a
floor means the same on a throttled runner.  Nobody types a floor: it is
``E2E_FLOOR_SHARE`` of what the newest committed ``BENCH_<pr>.json`` (the
perf trajectory every perf PR extends) recorded for that row, so a PR that
moves a rate moves its floor in the same commit.

* ``posted_4hop`` (the paper's Fig. 4 purchase with a fresh host each time):
  ``lifecycles_per_s``;
* ``forward_4hop`` (packets built and walked through four AES routers, every
  security check in the timed path): ``pkts_per_s``;
* ``transfer_3hop`` (deadline transfers of 1-2 legs, each AS answering a
  host's legs under one Diffie-Hellman exchange): ``lifecycles_per_s``;
* ``auction_24bid`` (a fresh bidder, so a fresh Schnorr identity, every
  lifecycle): ``lifecycles_per_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# (bench script, guarded A/B row name, params the row must match)
TARGETS = [
    ("bench_admission.py", "admission_controller_admit_ab", {}),
    (
        "bench_path_admission.py",
        "path_admission_admit_ab",
        {"hops": 2},
    ),
]

# (bench script, row name, params the row must match, ops/sec floor)
FLOOR_TARGETS = [
    ("bench_transfers.py", "transfer_plan", {}, 40.0),
]


# (workload, end-to-end metric) rows guarded against the committed trajectory
E2E_GUARDED = [
    ("posted_4hop", "lifecycles_per_s"),
    ("forward_4hop", "pkts_per_s"),
    ("transfer_3hop", "lifecycles_per_s"),
    ("auction_24bid", "lifecycles_per_s"),
]
# Run-to-run spread is a few percent in calibrated seconds; a row at 60% of
# its recorded rate has lost what the last perf PRs on it gained.
E2E_FLOOR_SHARE = 0.6


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


def _run_once(
    bench: pathlib.Path,
    row_name: str,
    params_match: dict,
    extra_args: list[str],
    mode_args: tuple[str, ...] = ("--smoke", "--ab-overhead"),
) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_TELEMETRY"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "bench.json"
        subprocess.run(
            [
                sys.executable,
                str(bench),
                *mode_args,
                "--json",
                str(out),
                *extra_args,
            ],
            check=True,
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
        )
        rows = json.loads(out.read_text())
    for row in rows:
        if row["name"] != row_name:
            continue
        params = row["params"]
        if any(params.get(key) != value for key, value in params_match.items()):
            continue
        return row
    raise SystemExit(
        f"row {row_name!r} matching {params_match} missing from {bench} "
        f"{' '.join(mode_args)} --json output"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="paired runs per target; the median overhead "
                        "is enforced (default 3)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="max tolerated fractional slowdown (default 0.05)")
    args = parser.parse_args(argv)

    failed = False
    for bench_name, row_name, params_match in TARGETS:
        bench = REPO_ROOT / "benchmarks" / bench_name
        label_suffix = (
            " [" + ", ".join(f"{k}={v}" for k, v in sorted(params_match.items())) + "]"
            if params_match
            else ""
        )
        print(f"== {row_name}{label_suffix} ({bench_name})")
        overheads = []
        for _ in range(args.repeats):
            row = _run_once(bench, row_name, params_match, [])
            overheads.append(row["overhead"])
            print(
                f"paired run: {row['overhead']:+.1%} "
                f"(p50 on {row['p50_on'] * 1e6:,.1f} us / "
                f"off {row['p50_off'] * 1e6:,.1f} us)"
            )
        overhead = statistics.median(overheads)
        print(f"median overhead with telemetry enabled: {overhead:+.1%} "
              f"(bar {args.threshold:.0%})")
        if overhead > args.threshold:
            print(f"FAIL: telemetry overhead exceeds the bar on {row_name}",
                  file=sys.stderr)
            failed = True
        else:
            print("OK")

    for bench_name, row_name, params_match, floor in FLOOR_TARGETS:
        bench = REPO_ROOT / "benchmarks" / bench_name
        print(f"== {row_name} floor ({bench_name})")
        rates = []
        for _ in range(args.repeats):
            row = _run_once(
                bench,
                row_name,
                params_match,
                ["--no-floor"],
                mode_args=("--smoke",),
            )
            rates.append(row["ops_per_sec"])
            print(f"run: {row['ops_per_sec']:,.1f} ops/s")
        rate = statistics.median(rates)
        print(f"median: {rate:,.1f} ops/s (floor {floor:,.1f})")
        if rate < floor:
            print(f"FAIL: {row_name} is below its throughput floor",
                  file=sys.stderr)
            failed = True
        else:
            print("OK")

    bench = newest_bench()
    print(f"== end-to-end floors: {E2E_FLOOR_SHARE:.0%} of {bench.name}")
    for workload, metric, floor in e2e_floors(bench):
        if not _e2e_floor_ok(workload, metric, floor):
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
