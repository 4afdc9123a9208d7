#!/usr/bin/env python3
"""Whole-lifecycle benchmark: buy a reservation, then forward packets over it.

One workload, the way the benchmark driver calls it (last line of stdout is
the result object)::

    python3 benchmarks/e2e/run.py --workload posted_4hop --seed 12 --seconds 8 --trace 0

Every workload, each in its own fresh subprocess, with a table of every
metric by name, unit and direction::

    python3 benchmarks/e2e/run.py [--seed N] [--traced] [--smoke] [--out PATH]

``--trace 1`` / ``--traced`` adds the per-layer pass: spans recorded from
outside the program, self times that sum to the timed wall.  Workloads run
with ``PYTHONHASHSEED=0``, one thread, closed loop, one client.
"""

from __future__ import annotations

import time

_PROCESS_BEGAN = time.perf_counter()

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
# The script's own directory is sys.path[0]; its ``trace.py`` must not
# shadow the standard library's.  Import the package instead.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(REPO / "src"))

DEFAULT_SEED = 12
DEFAULT_SECONDS = 8


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed work per run; rounds repeat until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: emit the per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: also make the per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="about a fifth of every count, one round; not comparable")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1: write the last traced round's spans as JSONL")
    parser.add_argument("--out", metavar="PATH", help="all-workloads mode: write results as JSON")
    return parser.parse_args(argv)


def run_one(args) -> int:
    """This process is the workload.  Prints the result object last."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order sets; a fixed seed makes every count repeat
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from e2e.speed import Speedometer

    with Speedometer() as speed:
        from e2e import harness  # imports the program: part of set-up time

        if args.workload not in harness.WORKLOADS:
            print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
                  file=sys.stderr)
            return 2
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            "smoke" if args.smoke else "full", speed, _PROCESS_BEGAN, args.spans,
        )
    for name in result["unresolved"]:
        print(f"trace_unresolved: {name}", file=sys.stderr)
    print(f"{args.workload}: {result['rounds']} rounds, {result['timed_s']:.2f} s timed, "
          f"{result['failed']}/{result['attempted']} operations failed", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh subprocess; a table; optionally a JSON file."""
    from e2e import harness, layers

    directions = {name: better for name, _, better, _ in harness.END_TO_END}
    directions.update({name: better for name, _, better in layers.PER_LAYER})
    document = {
        "meta": {
            "scale": "smoke" if args.smoke else "full",
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    status = 0
    for name, workload in harness.WORKLOADS.items():
        entry = document["workloads"][name] = {"why": workload.why, "pkts_note": workload.pkts_note}
        for trace in (0, 1) if args.traced else (0,):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            finished = subprocess.run(
                command, env={**os.environ, "PYTHONHASHSEED": "0"},
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            lines = finished.stdout.strip().splitlines()
            if not lines:
                print(f"{name}: no result (exit code {finished.returncode})", file=sys.stderr)
                return finished.returncode or 1
            result = json.loads(lines[-1])
            status = status or finished.returncode
            part = "per_layer" if trace else "end_to_end"
            entry[part] = result["metrics"]
            entry[f"{part}_attempted"] = result["attempted"]
            entry[f"{part}_failed"] = result["failed"]
        print_table(name, entry, directions)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return status


def print_table(name: str, entry: dict, directions: dict) -> None:
    print(f"\n== {name} ==  {entry['why']}")
    print(f"   ({entry['pkts_note']})")
    for part in ("end_to_end", "per_layer"):
        if part not in entry:
            continue
        failed, attempted = entry[f"{part}_failed"], entry[f"{part}_attempted"]
        print(f"-- {part}: {failed} of {attempted} operations failed "
              f"(failed_share {failed / attempted:.4f})")
        for metric, reading in entry[part].items():
            if part == "per_layer" and not reading["value"]:
                continue  # a layer this workload never enters
            print(f"   {metric:38s} {reading['value']:>16.6g} {reading['unit']:6s}"
                  f" ({directions[metric]} is better)")


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
