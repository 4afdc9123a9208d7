"""One traffic phase under the experiments, and no option nobody sets.

Every experiment in ``netsim/`` ends the same way — flows start at the
path's first AS, the loop runs, the sink's metrics are read — so a traffic
source is constructed at exactly one site, ``PathSimulation.send``, and a
beaconed chain at exactly one, ``linear_path``.  A second ``CbrSource(...)``
is a hand-rolled traffic phase growing back: before PR 20 there were six, with
three ``FloodSource(...)`` beside them and ``linear_path`` re-typed twice.
The walk covers ``examples/`` for sources too: two examples built their own
traffic phase, one with a jitter stream of its own, until they moved onto
``send``.

The same PR turned every experiment option that no call site in the
repository passed into a named constant (78 defaulted parameters across the
seven experiments became 29).  An option comes back only together with the
caller that needs it: that walk now lives in ``tests/test_no_unset_option.py``,
which audits every module under ``src/repro`` the same way.

The experiments buy what they send.  ``deploy_market`` is called at one site,
the harness ``_market``, which builds a deployment beside the simulation's
routers; every experiment that trades runs on it, so no directly granted key
and no bare ``AdmissionController`` is left in ``netsim/``: the reclamation
experiment's no-show loop is the deployment's own, bound to each on-path
router's policer, where it used to wire a ``ReclamationEngine`` to a bare
controller and grant keys through ``PathSimulation.grant_full_path`` (ROADMAP
item 18); ``path_contention_experiment`` clears whole paths in one on-chain
path auction, where it used to coordinate three bare controllers through an
off-chain two-phase protocol (ROADMAP item 20).
"""

from __future__ import annotations

import ast
import pathlib

import repro.netsim

NETSIM = pathlib.Path(repro.netsim.__file__).parent
EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _called_name(call: ast.Call) -> str | None:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id
    return function.attr if isinstance(function, ast.Attribute) else None


def _call_sites(name: str, directories=(NETSIM,)) -> list[str]:
    """Where ``directories`` (``netsim/``) call ``name``:
    ``file:Class.function`` per call."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Call) and _called_name(node) == name:
            sites.append(f"{path.name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            visit(ast.parse(path.read_text()), [])
    return sites


def test_a_traffic_source_is_constructed_at_one_site():
    # the examples too: a hand-built source there is a second traffic phase
    assert _call_sites("CbrSource", (NETSIM, EXAMPLES)) == ["scenarios.py:PathSimulation.send"]
    assert _call_sites("FloodSource", (NETSIM, EXAMPLES)) == []
    # the net is not vacuous: every experiment with a packet phase sends
    assert {
        "scenarios.py:congestion_experiment",
        "scenarios.py:contention_experiment",
        "scenarios.py:auction_experiment",
        "scenarios.py:flex_market_experiment",
        "scenarios.py:reclamation_experiment.run_arm.buy",
    } <= set(_call_sites("send"))


def test_a_chain_is_beaconed_at_one_site():
    assert _call_sites("run_beaconing") == ["scenarios.py:linear_path"]


def test_the_market_is_deployed_at_one_site():
    in_scenarios = [
        site for site in _call_sites("deploy_market") if site.startswith("scenarios.py")
    ]
    assert in_scenarios == ["scenarios.py:_market"]
    # contention and auction reach it through _contended_market
    assert sorted(_call_sites("_market")) == [
        "scenarios.py:_contended_market",
        "scenarios.py:congestion_experiment",
        "scenarios.py:flex_market_experiment",
        "scenarios.py:path_contention_experiment",
    ]
    assert sorted(_call_sites("_contended_market")) == [
        "scenarios.py:auction_experiment",
        "scenarios.py:auction_experiment",
        "scenarios.py:contention_experiment",
        "scenarios.py:reclamation_experiment.run_arm",
    ]


def test_no_bare_controller_is_built_and_no_key_is_granted():
    assert _call_sites("AdmissionController") == []
    assert _call_sites("ReclamationEngine") == []
    assert _call_sites("grant_reservation") == []
    assert _call_sites("grant_full_path") == []
