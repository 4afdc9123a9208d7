"""``tools/perf_guard.py`` takes its end-to-end floors from the committed trajectory."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def perf_guard():
    spec = importlib.util.spec_from_file_location(
        "perf_guard", REPO_ROOT / "tools" / "perf_guard.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_newest_is_by_pr_number_not_by_name(perf_guard, tmp_path):
    for pr in (9, 16, 100):
        (tmp_path / f"BENCH_{pr}.json").write_text("{}")
    assert perf_guard.newest_bench(tmp_path).name == "BENCH_100.json"


def test_floor_is_a_share_of_the_recorded_rate(perf_guard, tmp_path):
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"workloads": {
        "posted_4hop": {"end_to_end": {"lifecycles_per_s": {"unit": "1/s", "value": 10.0}}},
        "forward_4hop": {"end_to_end": {"pkts_per_s": {"unit": "1/s", "value": 3000.0}}},
        "transfer_3hop": {"end_to_end": {"lifecycles_per_s": {"unit": "1/s", "value": 9.0}}},
    }}))
    assert perf_guard.e2e_floors(bench) == [
        ("posted_4hop", "lifecycles_per_s", pytest.approx(6.0)),
        ("forward_4hop", "pkts_per_s", pytest.approx(1800.0)),
        ("transfer_3hop", "lifecycles_per_s", pytest.approx(5.4)),
    ]


def test_the_committed_trajectory_records_every_guarded_row(perf_guard):
    """A ``BENCH_<pr>.json`` missing a guarded row fails here, in tier-1,
    not first in the perf-guard job."""
    floors = perf_guard.e2e_floors(perf_guard.newest_bench())
    assert [row[:2] for row in floors] == perf_guard.E2E_GUARDED
    assert all(floor > 0 for _, _, floor in floors)
