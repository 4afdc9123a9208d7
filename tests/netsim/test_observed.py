"""Any experiment is observed by wrapping it, and the wrapping changes nothing.

No experiment in ``netsim/`` takes a telemetry argument or asks whether it is
watched: a caller who wants its metrics and traces runs the plain call inside
``ExperimentTelemetry.activate()``.  The two experiments that never took one,
``congestion_experiment`` and ``deadline_experiment``, are observable the same
way; the five that did are covered by the ``*/telemetry`` keys of
``test_experiment_equivalence.py`` and by ``tests/telemetry``.
"""

from __future__ import annotations

import pytest

from repro.netsim import congestion_experiment, deadline_experiment, linear_path, scenarios
from repro.telemetry import ExperimentTelemetry

#: The configurations the equivalence recording also runs (congestion for 0.5 s).
RUNS = {
    "congestion": lambda: congestion_experiment(*linear_path(3), protected=True),
    "deadline": deadline_experiment,
}


def _counted(telemetry: ExperimentTelemetry, family: str) -> float:
    (row,) = [row for row in telemetry.to_dict()["metrics"] if row["name"] == family]
    return sum(child["value"] for child in row["children"])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_wrapping_an_experiment_observes_it_and_changes_nothing(name, monkeypatch):
    monkeypatch.setattr(scenarios, "CONGESTION_SECONDS", 0.5)
    telemetry = ExperimentTelemetry(name)
    with telemetry.activate():
        observed = RUNS[name]()
    assert _counted(telemetry, "ledger_contract_calls_total") > 0
    assert _counted(telemetry, "admission_decisions_total") > 0
    assert observed == RUNS[name]()
