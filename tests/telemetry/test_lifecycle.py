"""End-to-end acceptance: one correlation id traces a reservation through
tx submit -> admission -> auction settle -> redeem -> delivery -> policing,
and the experiment harness captures metrics from every instrumented layer.
"""

import importlib.util
import json
import math
import pathlib

import pytest

from repro.netsim.scenarios import auction_experiment, linear_path
from repro.telemetry import ExperimentTelemetry, get_registry

_TOOL = pathlib.Path(__file__).parents[2] / "tools" / "report_experiment.py"
_spec = importlib.util.spec_from_file_location("report_experiment", _TOOL)
report_experiment = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_experiment)

LIFECYCLE_SPANS = [
    "ledger.submit",
    "admission.decision",
    "bid.placed",
    "auction.settle",
    "bid.settled",
    "listing.bought",
    "redeem.requested",
    "reservation.delivered",
    "policer.verdict",
]


@pytest.fixture(scope="module")
def auction_run():
    topology, path = linear_path(3)
    telemetry = ExperimentTelemetry("auction_experiment")
    result = auction_experiment(
        topology, path, num_buyers=4, duration=0.4, telemetry=telemetry
    )
    return telemetry, result


def test_one_correlation_id_covers_the_whole_lifecycle(auction_run):
    telemetry, _ = auction_run
    trace = next(t for t in telemetry.traces if t.name == "traced-reservation")
    names = trace.span_names()
    for required in LIFECYCLE_SPANS:
        assert required in names, f"missing lifecycle span {required}"
    # Every span carries the one correlation id.
    assert {s.trace_id for s in trace.spans} == {trace.trace_id}
    # The winning bid settled and the policer saw priority traffic.
    settled = [s for s in trace.spans if s.name == "bid.settled"]
    assert any(s.attrs.get("won") for s in settled)
    verdict = [s for s in trace.spans if s.name == "policer.verdict"][-1]
    assert verdict.attrs["priority_bytes"] > 0


def test_lifecycle_spans_are_causally_ordered(auction_run):
    telemetry, _ = auction_run
    trace = next(t for t in telemetry.traces if t.name == "traced-reservation")
    names = trace.span_names()
    order = [names.index(name) for name in LIFECYCLE_SPANS if name != "admission.decision"]
    assert order == sorted(order), "lifecycle milestones out of order"


def test_metrics_cover_every_instrumented_layer(auction_run):
    telemetry, _ = auction_run
    families = {family.name for family in telemetry.registry.families()}
    for expected in (
        "admission_decisions_total",
        "admission_admit_seconds",
        "indexer_events_total",
        "ledger_tx_latency_seconds",
        "as_auction_settlements_total",
        "host_bid_settlements_total",
        "policer_flow_priority_bytes",
        "admission_utilization_ratio",
    ):
        assert expected in families, f"missing metric family {expected}"


def test_registry_restored_after_experiment(auction_run):
    telemetry, _ = auction_run
    assert get_registry() is not telemetry.registry


def test_experiment_dump_and_dashboard(auction_run, tmp_path):
    telemetry, result = auction_run
    dump_path = telemetry.write(tmp_path / "auction_telemetry.json")
    dump = json.loads(dump_path.read_text())
    assert dump["scenario"] == "auction_experiment"
    assert dump["extra"]["auction"]["oversold"] == result.oversold
    assert any(t["name"] == "traced-reservation" for t in dump["traces"])

    dashboard = report_experiment.render_dashboard(dump)
    assert "admission_decisions_total" in dashboard
    assert "traced-reservation" in dashboard


def _strict(text: str) -> dict:
    """Parse as RFC 8259 does: ``Infinity`` / ``NaN`` are not JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_a_dump_is_strict_json_and_to_dict_keeps_the_floats(tmp_path):
    telemetry = ExperimentTelemetry("non-finite")
    telemetry.annotate(curve_prices=[6.0, math.inf, -math.inf], quantile=math.nan)
    dump = _strict(telemetry.write(tmp_path / "dump.json").read_text())
    assert dump["extra"] == {"curve_prices": [6.0, None, None], "quantile": None}
    assert telemetry.to_dict()["extra"]["curve_prices"][1] == math.inf


@pytest.mark.parametrize("scenario", report_experiment.SCENARIOS)
def test_the_tool_runs_dumps_and_renders_every_scenario(scenario, tmp_path, capsys):
    """``flex_market`` prices an uncoverable window at ``inf``, and nothing but
    this ran ``reclamation_experiment(telemetry=)``."""
    assert report_experiment.main(
        ["--run", scenario, "--duration", "0.3", "--out", str(tmp_path)]
    ) == 0
    dump = _strict((tmp_path / f"{scenario}_telemetry.json").read_text())
    assert dump["scenario"] == f"{scenario}_experiment"
    (annotated,) = dump["extra"]
    assert annotated.startswith(scenario) and dump["extra"][annotated]
    assert dump["metrics"]
    dashboard = (tmp_path / f"{scenario}_dashboard.txt").read_text()
    assert dashboard in capsys.readouterr().out
    assert "## Scenario results" in dashboard and "## Counters" in dashboard
