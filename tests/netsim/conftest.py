"""Netsim fixtures: each experiment configuration runs once a session.

An experiment on the deployed market costs a deployment and a purchase per
buyer, so the configurations the recording in
``test_experiment_equivalence.py`` and the claim tests share are run once and
handed to both.
"""

from __future__ import annotations

import pytest

from repro.netsim import linear_path


class ExperimentRuns:
    """``runs(experiment, num_ases, **options)`` — the experiment's result over
    ``linear_path(num_ases)``, computed on the first call with these
    arguments.  Results are shared: read them, never change them."""

    def __init__(self) -> None:
        self._results: dict = {}

    def __call__(self, experiment, num_ases: int, **options):
        key = (experiment.__name__, num_ases, tuple(sorted(options.items())))
        if key not in self._results:
            self._results[key] = experiment(*linear_path(num_ases), **options)
        return self._results[key]


@pytest.fixture(scope="session")
def experiment_runs() -> ExperimentRuns:
    return ExperimentRuns()
