"""``tools/perf_guard.py`` gates every per-layer bench at its bars and takes its
end-to-end floors from the committed trajectory."""

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
        "auction_24bid": {"end_to_end": {"lifecycles_per_s": {"unit": "1/s", "value": 80.0}}},
        "flood_sim_4hop": {"end_to_end": {"pkts_per_s": {"unit": "1/s", "value": 30000.0}}},
    }}))
    assert perf_guard.e2e_floors(bench) == [
        ("posted_4hop", "lifecycles_per_s", pytest.approx(6.0)),
        ("forward_4hop", "pkts_per_s", pytest.approx(1800.0)),
        ("transfer_3hop", "lifecycles_per_s", pytest.approx(5.4)),
        ("auction_24bid", "lifecycles_per_s", pytest.approx(48.0)),
        ("flood_sim_4hop", "pkts_per_s", pytest.approx(18000.0)),
    ]


def test_the_committed_trajectory_records_every_guarded_row(perf_guard):
    """A ``BENCH_<pr>.json`` missing a guarded row fails here, in tier-1,
    not first in the perf-guard job."""
    floors = perf_guard.e2e_floors(perf_guard.newest_bench())
    assert [row[:2] for row in floors] == perf_guard.E2E_GUARDED
    assert all(floor > 0 for _, _, floor in floors)


def test_every_bench_module_is_gated(perf_guard):
    benches = {path.stem for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    modules = [layer.__name__ for layer in perf_guard.LAYERS]
    modules += [ab.__module__ for _, ab in perf_guard.AB_ROWS]
    assert {module.rsplit(".", 1)[-1] for module in modules} == benches
    assert all(layer.BARS and callable(layer.measure) for layer in perf_guard.LAYERS)


def _reading(layer, share):
    return lambda: {name: share * bar for name, bar in layer.BARS.items()}


@pytest.fixture
def guard_at_the_bars(perf_guard, monkeypatch, capsys):
    """The guard with every layer reading exactly its bars, an A/B row at the
    overhead bar and the e2e floors passing: nothing is measured."""
    for layer in perf_guard.LAYERS:
        monkeypatch.setattr(layer, "measure", _reading(layer, 1.0))
    row = {"overhead": perf_guard.MAX_OVERHEAD, "p50_on": 1.05e-5, "p50_off": 1e-5}
    monkeypatch.setattr(perf_guard, "AB_ROWS", (("row", lambda: row),))
    monkeypatch.setattr(perf_guard, "e2e_ok", lambda: True)
    return perf_guard


def test_the_guard_passes_at_the_bars(guard_at_the_bars):
    assert guard_at_the_bars.main() == 0


@pytest.mark.parametrize("index", range(5))
def test_one_layer_below_its_bar_fails_the_guard(guard_at_the_bars, monkeypatch, index):
    layer = guard_at_the_bars.LAYERS[index]
    monkeypatch.setattr(layer, "measure", _reading(layer, 0.9))
    assert guard_at_the_bars.main() == 1


def test_telemetry_overhead_over_its_bar_fails_the_guard(guard_at_the_bars, monkeypatch):
    row = {"overhead": 0.06, "p50_on": 1.06e-5, "p50_off": 1e-5}
    monkeypatch.setattr(guard_at_the_bars, "AB_ROWS", (("row", lambda: row),))
    assert guard_at_the_bars.main() == 1
