#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: is B no worse than A?

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, the ratio of B to
A with its base, and a verdict.  ``worse`` means B is worse than A by more
than the bound ``BENCHMARK.json`` fixes for that metric, ``better`` means
better by more than the bound, ``within`` anything between.  Exits non-zero
on any ``worse`` row, on any rise in the share of failed operations, and on
input that cannot be compared (smoke-scale files, different seeds).
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    document = json.loads(pathlib.Path(path).read_text())
    if document["meta"]["scale"] != "full":
        sys.exit(f"{path}: scale {document['meta']['scale']!r} results are not comparable")
    return document


def verdict(base: float, other: float, better: str, bound: float) -> str:
    """Where ``other`` stands against ``base`` for a metric that is better
    ``"higher"`` or ``"lower"``."""
    change = (other - base) / abs(base)
    if better == "higher":
        change = -change
    # change > 0 now means "got worse"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def failed_share(entry: dict) -> float:
    return entry["end_to_end_failed"] / entry["end_to_end_attempted"]


def compare(a: dict, b: dict, metrics: list) -> tuple[list, bool]:
    """Rows ``(workload, metric, a, b, unit, bound, verdict)`` and whether B passes."""
    rows, passed = [], True
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"][workload]
        for metric in metrics:
            name = metric["name"]
            value_a = entry_a["end_to_end"][name]["value"]
            value_b = entry_b["end_to_end"][name]["value"]
            outcome = verdict(value_a, value_b, metric["better"], metric["bound"])
            passed = passed and outcome != "worse"
            rows.append((workload, name, value_a, value_b, metric["unit"], metric["bound"], outcome))
        share_a, share_b = failed_share(entry_a), failed_share(entry_b)
        outcome = "worse" if share_b > share_a else "within"
        passed = passed and outcome != "worse"
        rows.append((workload, "failed_share", share_a, share_b, "ratio", 0.0, outcome))
    return rows, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = load(argv[0]), load(argv[1])
    if a["meta"]["seed"] != b["meta"]["seed"]:
        sys.exit("the two files were measured with different seeds")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows, passed = compare(a, b, metrics)
    print(f"A = {argv[0]}\nB = {argv[1]}")
    print(f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} {'unit':5s} "
          f"{'B/A':>28s} {'bound':>6s}  verdict")
    for workload, name, value_a, value_b, unit, bound, outcome in rows:
        ratio = f"{value_b / value_a:.3f}x of A's {value_a:.5g}" if value_a else "A is 0"
        exact = " (identical)" if value_a == value_b else ""
        print(f"{workload:16s} {name:22s} {value_a:12.5g} {value_b:12.5g} {unit:5s} "
              f"{ratio:>28s} {bound:6.2f}  {outcome}{exact}")
    print("PASS: every row within its bound or better" if passed else "FAIL: see 'worse' rows")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
