"""One owner of randomness: every stream under ``src/repro`` is named, and
each is constructed at one site.

``deploy_market`` turns a seed into named streams: each purpose draws from
its own ``random.Random(f"{seed}/{purpose}")`` — the account and redeem
keys, the CP-PKI root, the ledger's latency model (which also draws every
AS's checkpoint-poll delay) and each AS's sealing.  So how a key is drawn
cannot move a simulated latency, and the trust anchor that certifies ASes is
no market participant's key.  ``PathSimulation.send`` gives each simulated
flow its own ``random.Random(f"{SEED}/flow/{flow_id}")``, so adding a flow
never re-draws another flow's packet gaps (``tests/netsim/test_flow_streams.py``).
Three more sites each own one stream: ``run_beaconing`` (the β0 draws),
``auction_experiment`` (the buyers' valuations) and ``deadline_experiment``
(the transfer mix).  No other module picks a seed of its own.
"""

from __future__ import annotations

import ast
import pathlib

import repro
from tests.conftest import T0

from repro.clock import SimClock
from repro.controlplane import deploy_market, purchase_path
from repro.crypto.sealing import KeyPair
from repro.crypto.signatures import SigningKey
from repro.netsim import linear_path
from repro.scion import as_crossings

SOURCE = pathlib.Path(repro.__file__).parent


def _stream_sites() -> list[str]:
    """Every ``random.Random(...)`` (or bare ``Random(...)``) call under
    ``src/repro``, as ``package/file.py:Class.function`` of its scope."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Call) and "Random" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            sites.append(f"{path.relative_to(SOURCE)}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SOURCE.rglob("*.py")):
        visit(ast.parse(path.read_text()), [])
    return sites


def test_every_stream_under_src_has_one_named_owner():
    assert sorted(_stream_sites()) == [
        "controlplane/workflow.py:deploy_market.stream",
        "netsim/deadline.py:deadline_experiment",
        "netsim/scenarios.py:PathSimulation.send",
        "netsim/scenarios.py:auction_experiment",
        "scion/beaconing.py:run_beaconing",
    ]


def _purchase_latencies(count: int = 3) -> list[tuple[float, float]]:
    """``(request, response)`` of ``count`` purchases by fresh hosts on one deployment."""
    topology, path = linear_path(3)
    deployment = deploy_market(topology, clock=SimClock(float(T0)), asset_duration=14_400)
    crossings = as_crossings(path)
    latencies = []
    for index in range(count):
        start = T0 + 3600 + 600 * index
        outcome = purchase_path(
            deployment, deployment.new_host(), crossings, start, start + 600, 1000
        )
        latencies.append((outcome.latency.request, outcome.latency.response))
    return latencies


def test_a_key_draw_never_moves_a_simulated_latency(monkeypatch):
    """Every account, redeem and sealing key drawn with one more draw than
    before: every request and response latency stays what it was."""
    honest = _purchase_latencies()

    def one_draw_more(generate):
        def drawing(rng):
            rng.random()
            return generate(rng)

        return staticmethod(drawing)

    monkeypatch.setattr(SigningKey, "generate", one_draw_more(SigningKey.generate))
    monkeypatch.setattr(KeyPair, "generate", one_draw_more(KeyPair.generate))
    assert _purchase_latencies() == honest


def _drawn_signing_keys(monkeypatch) -> list:
    drawn = []
    generate = SigningKey.generate

    def recording(rng):
        drawn.append(generate(rng))
        return drawn[-1]

    monkeypatch.setattr(SigningKey, "generate", staticmethod(recording))
    return drawn


def test_the_pki_root_is_no_accounts_key_in_a_deployment(monkeypatch):
    drawn = _drawn_signing_keys(monkeypatch)
    topology, _ = linear_path(4)
    deployment = deploy_market(topology, clock=SimClock(float(T0)), seed=7)
    hosts = [deployment.new_host(name=f"host-{index}") for index in range(2)]
    (root,) = {service.pki._root.public for service in deployment.services.values()}
    accounts = [key.public for key in drawn if key.public != root]
    # the operator, four ASes and two hosts: every account key but the root's
    assert len(accounts) == 1 + 4 + 2 == len(drawn) - 1
    assert {host.account.signing_key.public for host in hosts} <= set(accounts)
    assert len(set(accounts)) == len(accounts)


def test_the_pki_root_is_no_accounts_key_in_the_table2_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[2] / "tools"))
    import paper_scoreboard

    drawn = _drawn_signing_keys(monkeypatch)
    paper_scoreboard.table2_gas()
    publics = [key.public for key in drawn]
    assert len(publics) == 3  # the root, the AS and the buyer
    assert len(set(publics)) == 3
