"""Runs one workload: repeats whole rounds, aggregates medians over them.

A round is set-up (a fresh deployment, timed as one ``setup_s`` sample)
followed by the timed control and data phases.  Rounds repeat — same seed,
same inputs — until the timed work adds up to ``seconds``, never fewer
than :data:`MIN_ROUNDS` (three set-up samples make a median) and never more
than :data:`MAX_ROUNDS` (set-up is not counted against ``seconds``, so a
program that got much faster must not make the run much longer).

Closed loop, one client, one thread: the next operation starts when the
previous one returned.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time

from . import api, layers
from .speed import BYTECODE, SAMPLE_SLEEP_S, Speedometer
from .trace import Tracer
from .workloads import WORKLOADS

MIN_ROUNDS = {"full": 3, "smoke": 1}
MAX_ROUNDS = 6

# (name, unit, better, bound): the end-to-end metrics, measured with tracing
# off.  Bounds are the share of the baseline a metric may worsen by.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("lifecycles_per_s", "1/s", "higher", 0.15),
    ("lifecycle_p50_s", "s", "lower", 0.15),
    ("gas_sui_per_lifecycle", "SUI", "lower", 0.05),
    ("pkts_per_s", "1/s", "higher", 0.25),
    ("pkt_p50_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def run_round(workload, tracer: Tracer | None, speed: Speedometer):
    """Set-up, then the two timed phases; returns (result, layer metrics)."""
    gc.collect()
    clock = time.perf_counter
    s0 = clock()
    workload.setup()
    s1 = clock()
    if tracer is not None:
        tracer.install()
        workload.mark = tracer.set_lifecycle
    try:
        t0 = clock()
        workload.control()
        t1 = clock()
        workload.data()
        t2 = clock()
    finally:
        if tracer is not None:
            tracer.uninstall()
    time.sleep(2 * SAMPLE_SLEEP_S)  # let a sample land after the last phase
    workload.finish()
    timeline = speed.timeline()
    result = workload.result(timeline, (s0, s1), (t0, t1), (t1, t2))
    layer_metrics = (
        layers.per_layer(tracer, result, t1, timeline) if tracer is not None else None
    )
    return result, layer_metrics


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale: str,
    speed: Speedometer, process_began: float, spans_path=None,
) -> dict:
    """The result object of one run: correctness, counts and the metrics.

    ``speed`` has been sampling since ``process_began``, before the program
    was imported: import time is part of set-up.
    """
    import_s = speed.timeline().calibrated(process_began, time.perf_counter(), BYTECODE)
    played = []  # (round result, its layer metrics or None)
    timed = 0.0
    last_tracer = None
    while len(played) < MIN_ROUNDS[scale] or (timed < seconds and len(played) < MAX_ROUNDS):
        # traced runs alternate traced and untraced rounds: the difference
        # of their walls is the tracing overhead
        tracer = Tracer(also_patch=(api,)) if traced and len(played) % 2 == 0 else None
        played.append(run_round(WORKLOADS[name](seed, scale), tracer, speed))
        timed += played[-1][0].raw_wall_s
        last_tracer = tracer or last_tracer
    rounds = [result for result, _ in played]
    failed = sum(result.failed for result in rounds)
    attempted = sum(result.attempted for result in rounds) + 1  # + the one below
    expected = rounds[0].counts()
    odd = next((result for result in rounds if result.counts() != expected), None)
    if odd is not None:
        failed += 1
        odd.problems.append(f"{name}: rounds disagree: {odd.counts()} != {expected}")
    for result in rounds:
        for problem in result.problems:
            print(problem, file=sys.stderr)

    if traced:
        if spans_path:
            last_tracer.write_jsonl(spans_path)
        traced_layers = [layer_metrics for _, layer_metrics in played if layer_metrics]
        metrics = {
            key: statistics.median(round_metrics[key] for round_metrics in traced_layers)
            for key in layers.UNITS
        }
        walls = {
            was_traced: [
                result.control_wall_s + result.data_wall_s
                for result, layer_metrics in played
                if (layer_metrics is not None) == was_traced
            ]
            for was_traced in (True, False)
        }
        if walls[False]:  # a single-round smoke run has nothing to compare with
            metrics["driver.trace_overhead"] = (
                statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            )
        units = layers.UNITS
    else:
        setup_s = import_s + statistics.median(result.setup_s for result in rounds)
        metrics = end_to_end(rounds, setup_s)
        units = {metric: unit for metric, unit, _, _ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "rounds": len(rounds),
        "timed_s": timed,
        "unresolved": last_tracer.unresolved if last_tracer else [],
    }


def end_to_end(rounds: list, setup_s: float) -> dict:
    def over_rounds(value) -> float:
        return statistics.median(value(result) for result in rounds)

    return {
        "setup_s": setup_s,
        "lifecycles_per_s": over_rounds(
            lambda r: len(r.lifecycle_s) / r.control_wall_s
        ),
        "lifecycle_p50_s": over_rounds(lambda r: statistics.median(r.lifecycle_s)),
        "gas_sui_per_lifecycle": over_rounds(lambda r: r.gas_sui / len(r.lifecycle_s)),
        "pkts_per_s": over_rounds(lambda r: r.packets / r.packet_wall_s),
        "pkt_p50_us": over_rounds(lambda r: statistics.median(r.packet_us)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
