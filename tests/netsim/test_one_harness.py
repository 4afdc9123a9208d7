"""One traffic phase under the experiments, and no option nobody sets.

Every experiment in ``netsim/`` ends the same way — flows start at the
path's first AS, the loop runs, the sink's metrics are read — so a traffic
source is constructed at exactly one site, ``PathSimulation.send``, and a
beaconed chain at exactly one, ``linear_path``.  A second ``CbrSource(...)``
is a hand-rolled traffic phase growing back: before PR 20 there were six, with
three ``FloodSource(...)`` beside them and ``linear_path`` re-typed twice.

The same PR turned every experiment option that no call site in the
repository passed into a named constant (78 defaulted parameters across the
seven experiments became 29).  An option comes back only together with the
caller that needs it: that walk now lives in ``tests/test_no_unset_option.py``,
which audits every module under ``src/repro`` the same way.
"""

from __future__ import annotations

import ast
import pathlib

import repro.netsim

NETSIM = pathlib.Path(repro.netsim.__file__).parent


def _called_name(call: ast.Call) -> str | None:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id
    return function.attr if isinstance(function, ast.Attribute) else None


def _call_sites(name: str) -> list[str]:
    """Where ``netsim/`` calls ``name``: ``file:Class.function`` per call."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Call) and _called_name(node) == name:
            sites.append(f"{path.name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(NETSIM.glob("*.py")):
        visit(ast.parse(path.read_text()), [])
    return sites


def test_a_traffic_source_is_constructed_at_one_site():
    assert _call_sites("CbrSource") == ["scenarios.py:PathSimulation.send"]
    assert _call_sites("FloodSource") == []
    # the net is not vacuous: the experiments do send
    assert len(_call_sites("send")) >= 9


def test_a_chain_is_beaconed_at_one_site():
    assert _call_sites("run_beaconing") == ["scenarios.py:linear_path"]
