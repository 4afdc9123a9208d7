"""Smoke-scale runs of every workload: determinism, an unseen seed, the contract.

Each run is ``run.py --workload W --trace 1 --smoke`` in a subprocess (one
traced round, about a fifth of every count).  Seed A runs twice, seed B
once; one queue of runs per CPU (two at most), because set-up dominates at
this scale.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from . import harness, layers
from .compare import load, verdict

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
SEED_A, SEED_B = 12, 7_919

# Counts that must repeat exactly from run to run of one seed.
EXACT = (
    "ledger.host_gas_sui", "crypto.pk_ops", "crypto.prf_ops", "ledger.txs",
    "ledger.events_scanned", "contracts.commands", "admission.decisions",
    "controlplane.deliveries", "transfers.legs", "transfers.buys", "netsim.events",
    "netsim.queue_drops", "hummingbird.demoted_share", "hummingbird.dropped_share",
)


def run(workload: str, seed: int, cpu: int) -> dict:
    """One smoke run, confined to ``cpu``: a run pins itself to the CPU it
    starts on, and two runs that pick the same one would take turns."""
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert finished.returncode == 0, finished.stderr
    assert "trace_unresolved" not in finished.stderr
    return json.loads(finished.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    jobs = [
        (workload, seed, tag)
        for seed, tag in ((SEED_A, "a1"), (SEED_A, "a2"), (SEED_B, "b"))
        for workload in harness.WORKLOADS
    ]
    cpus = sorted(os.sched_getaffinity(0))[:2]
    lanes = [jobs[lane::len(cpus)] for lane in range(len(cpus))]  # one queue per CPU
    with ThreadPoolExecutor(max_workers=len(cpus)) as pool:
        done = pool.map(
            lambda lane: [run(workload, seed, cpus[lane]) for workload, seed, _ in lanes[lane]],
            range(len(cpus)),
        )
    return {
        (workload, tag): result
        for lane, results in zip(lanes, done)
        for (workload, _, tag), result in zip(lane, results)
    }


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_result_object_meets_the_contract(runs, workload):
    result = runs[workload, "a1"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: reading["unit"] for name, reading in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_same_seed_repeats_every_count_exactly(runs, workload):
    first, second = runs[workload, "a1"], runs[workload, "a2"]
    assert first["attempted"] == second["attempted"]
    for metric in EXACT:
        assert value(first, metric) == value(second, metric), metric


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_unseen_seed_makes_other_inputs_and_passes_every_check(runs, workload):
    seen, unseen = runs[workload, "a1"], runs[workload, "b"]
    assert unseen["correct"] is True and unseen["failed"] == 0
    # the amount of work does not depend on the seed ...
    assert unseen["attempted"] == seen["attempted"]
    assert value(unseen, "crypto.pk_ops") == value(seen, "crypto.pk_ops")
    # ... the inputs do: every key differs, so the ledger's latency draws do
    assert value(unseen, "ledger.sim_latency_p50_s") != value(seen, "ledger.sim_latency_p50_s")


def test_waterfall_sums_to_the_timed_wall(runs):
    for (workload, _), result in runs.items():
        parts = sum(
            value(result, f"{layer}.self_s") for layer in layers.LAYERS + ("driver",)
        )
        assert parts == pytest.approx(value(result, "driver.timed_wall_s"), rel=1e-9), workload
        assert value(result, "driver.self_s") >= 0, workload


def test_waterfall_names_the_layers_the_roadmap_names(runs):
    posted = runs["posted_4hop", "a1"]
    assert value(posted, "crypto.control_share") >= 0.9
    assert value(posted, "controlplane.scan_waste_growth") > 1  # later hosts scan more
    forward = runs["forward_4hop", "a1"]
    assert value(forward, "driver.data_phase_control_calls") == 0
    assert value(forward, "netsim.calls") == 0 and value(forward, "transfers.calls") == 0
    assert value(runs["flood_sim_4hop", "a1"], "netsim.events") > 0
    assert value(runs["transfer_3hop", "a1"], "transfers.plans") > 0
    assert value(runs["auction_24bid", "a1"], "admission.calls") > 0


def test_benchmark_json_declares_what_the_code_emits():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(layers.PER_LAYER)


def test_compare_refuses_smoke_scale_results(tmp_path):
    smoke = tmp_path / "smoke.json"
    smoke.write_text(json.dumps({"meta": {"scale": "smoke", "seed": 1}, "workloads": {}}))
    with pytest.raises(SystemExit, match="not comparable"):
        load(str(smoke))


def test_compare_verdicts():
    assert verdict(100.0, 104.0, "lower", 0.05) == "within"
    assert verdict(100.0, 106.0, "lower", 0.05) == "worse"
    assert verdict(100.0, 94.0, "lower", 0.05) == "better"
    assert verdict(100.0, 94.0, "higher", 0.05) == "worse"
    assert verdict(100.0, 106.0, "higher", 0.05) == "better"
