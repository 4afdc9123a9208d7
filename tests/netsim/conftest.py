"""Netsim fixtures: each experiment configuration runs once a session.

An experiment on the deployed market costs a deployment and a purchase per
buyer, so the configurations the recording in
``test_experiment_equivalence.py`` and the claim tests share are run once and
handed to both.
"""

from __future__ import annotations

import pytest

from repro.netsim import linear_path, scenarios


class ExperimentRuns:
    """``runs(experiment, num_ases, constants={...}, **options)`` — the
    experiment's result over ``linear_path(num_ases)``, computed on the first
    call with these arguments.  ``constants`` names
    ``repro.netsim.scenarios`` constants to set for the run: the seam to a
    value no caller of the experiment varies.  Results are shared: read them,
    never change them."""

    def __init__(self) -> None:
        self._results: dict = {}

    def __call__(self, experiment, num_ases: int, constants=None, **options):
        constants = tuple(sorted((constants or {}).items()))
        key = (experiment.__name__, num_ases, constants, tuple(sorted(options.items())))
        if key not in self._results:
            with pytest.MonkeyPatch.context() as patch:
                for name, value in constants:
                    patch.setattr(scenarios, name, value)
                self._results[key] = experiment(*linear_path(num_ases), **options)
        return self._results[key]


@pytest.fixture(scope="session")
def experiment_runs() -> ExperimentRuns:
    return ExperimentRuns()
