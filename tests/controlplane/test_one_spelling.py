"""Each contract call is spelled once in ``controlplane/``.

The control plane has one mechanism — a programmable transaction — so a
``(contract, function)`` pair is written as a ``Command(...)`` literal at
exactly one site and a ``Transaction(...)`` is built once per client (plus
``deploy_market``'s marketplace creation).  A second ``Command("market",
"buy", ...)`` is a second lowering growing back: before PR 18 there were four
of them, and 21 hand-wrapped transactions.
"""

from __future__ import annotations

import ast
import collections
import pathlib

import repro.controlplane

SOURCES = sorted(pathlib.Path(repro.controlplane.__file__).parent.glob("*.py"))


def _calls(name: str):
    """Every ``name(...)`` call in the package, as ``(file:line, node)``."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == name
            ):
                yield f"{path.name}:{node.lineno}", node


def test_every_contract_call_is_a_literal_written_at_one_site():
    sites = collections.defaultdict(list)
    for where, call in _calls("Command"):
        pair = call.args[:2]
        assert len(pair) == 2 and all(
            isinstance(arg, ast.Constant) and isinstance(arg.value, str) for arg in pair
        ), f"{where}: Command(contract, function) must be two string literals"
        sites[(pair[0].value, pair[1].value)].append(where)
    repeated = {pair: where for pair, where in sites.items() if len(where) > 1}
    assert not repeated, repeated
    # the net is not vacuous: the lowering's three commands are among them
    assert {("market", "buy"), ("asset", "fuse_time"), ("asset", "redeem"),
            ("asset", "issue")} <= set(sites)


def test_a_transaction_is_built_once_per_client():
    built = collections.Counter(where.split(":")[0] for where, _ in _calls("Transaction"))
    assert built == {"hostclient.py": 1, "asclient.py": 1, "workflow.py": 1}, built
