"""Every netsim experiment returns exactly what it returned before.

``run_experiments`` drives all seven ``*_experiment`` functions once, seeded,
over ``linear_path(3)`` and ``linear_path(4)``: ``congestion_experiment``
protected and unprotected plus one call with its three rates varied;
``contention_experiment`` at two ``(num_buyers, PER_BUYER_KBPS)``;
``auction_experiment`` with a packet phase and clearing-only at two seeds;
``flex_market_experiment`` once and with three flex budgets;
``path_contention_experiment`` on three and four ASes;
``reclamation_experiment`` (the 3 s run ``test_reclamation.py`` asserts its
claims on, in which the adaptive arm reclaims and admits a waiting buyer at a
scan);
``deadline_experiment``; then five of them once more inside an activated
:class:`ExperimentTelemetry`.  A value no caller of an experiment varies (a
congestion run's rates and length, a contention buyer's rate, the auction's
valuation seed) is a ``repro.netsim.scenarios`` constant the run sets through
``ExperimentRuns``' ``constants``.

The recording was made while four experiments still took a calendar geometry,
so their keys come in two arms: ``/monolithic`` (one unbounded shard) and
``/sharded`` (600-second shards).  The arms were equal, key for key; every
calendar now has a day-wide shard width and no experiment takes one, so one
run answers for both arms (``ARMED``).

Recorded per key: the whole result dataclass (``dataclasses.fields``,
recursively; floats to 12 significant digits, non-finite ones as the strings
``"inf"`` / ``"nan"``) and, for a telemetry run, every trace's name
with its ordered ``[span name, attrs]`` list and every metric family except the
wall-clock ones (``*_seconds``).  Trace ids, span starts and durations are
dropped: they are the only parts of a dump that differ between two runs.

The recording committed beside this file was made at the commit *before*
``netsim/`` got its one traffic phase (``PathSimulation.send`` / ``run`` /
``stop``; PR 20), with that commit's ``src/`` on the path; today's code has to
reproduce it byte for byte.  Every goodput, latency and utilisation in it
depends on the order in which sources are constructed and started (the event
loop breaks ties FIFO, so two flows started the other way round reach a
shared queue in the other order), so a refactor that reorders two ``start``
calls fails here, not in a plot.  Each flow draws its jitter from its own
stream, named for its flow id.
It was re-recorded ten times since.  First when the congestion, contention and
auction experiments moved onto a deployed market: the telemetry runs' traces
and metrics (ledger spans and families appeared) and the path-contention
hop-mode labels (their calendar-geometry word went) changed, and nothing
else did.  Then when the reclamation experiment moved onto one:
in ``reclamation/telemetry`` each arm's ``revenue_mist`` doubled (it is the
bottleneck AS's ledger balance, which sells both of its legs, no longer a sum
of bottleneck-ingress quotes) and each admitted buyer's ``reason`` became
``"fits"`` (the policy's ``"fits under <f>x overbooking"`` is no longer
seen); its ``extra`` revenues and metric families moved with them (the
market's families appeared); ``reclamation@3`` was recorded anew at 3 s, the
duration of the claim tests' run, which it now shares (at the old 0.6 s it
had moved as the telemetry run did); and the ``admission_expired_total`` /
``admission_shards_dropped_total`` families, registered at zero for this
file alone, left every telemetry run.  Every buyer's admission, goodput,
latency and loss, every reclaim count and learned factor of the telemetry
run, and every other key's result held.  Then when the path-contention
experiment moved onto one: ``path_contention@3``, ``path_contention@4`` and
``path_contention/telemetry`` were recorded anew (bare controllers and
fingerprint probes gave way to one on-chain path auction, so ``hop_modes``
and ``rollback_restores_state`` left the result, each buyer gained
``legs_won``, ``escrow_mist`` and ``refund_mist``, and a loser's
``failed_hop`` and ``reason`` became the contract's loser report), and the
other 25 keys held byte for byte.  Then when ``purchase_path`` lost its
off-chain pre-flight: only the ``auction``, ``contention``, ``flex_market``
and ``reclamation`` telemetry runs moved, and in them only the traces (no
``path.screen`` span and ``path.rollback`` event a purchase; the reclamation
run records no trace), ``admission_decisions_total`` (no screening admits)
and the four ``pathadm_*`` families (gone); the other 24 keys and every
``result`` held.  Then when the per-buyer share cap left the contract and
``path_contention_experiment`` deployed first come, first served at the same
interface capacity: only ``ledger_gas_storage_bytes_total`` moved, in
``auction/telemetry`` (99,335 → 99,223) and ``path_contention/telemetry``
(94,463 → 92,531), the bytes of the cap field auctions and path legs no
longer store; every ``result`` and every other key held.

Then, when the experiments stopped taking a ``telemetry`` argument and a
telemetry run became the plain call wrapped in ``activate()``, the five
``*/telemetry`` keys lost their ``extra`` part (a hand-copied subset of the
result, which the dump now carries whole); their ``result``, ``traces`` and
``metrics`` and the 23 other keys held byte for byte.

Then, when ``deploy_market`` named one random stream per purpose (keys, PKI
root, committee latency, each AS's sealing): in the ``auction``,
``contention``, ``flex_market`` and ``path_contention`` telemetry runs the
traces' object ids (``auction``, ``listing``, ``ingress_asset`` /
``egress_asset``, ``request``, ``path_auction``), ``tx_digest`` and ``latency``
values moved; every ``result``, every metric family and the 23
other keys held byte for byte.

Then, when each simulated flow got its own stream
(``random.Random(f"{SEED}/flow/{flow_id}")`` in ``PathSimulation.send``,
where the flows of one simulation had shared the experiment's ``rng``) and
``deadline_experiment`` lost its never-drawn budget: 21 of the 28 keys
moved.  Every ``congestion/*``, ``contention/*`` and ``flex_market/*`` key,
``auction/packets@3``, ``auction/packets@4``, ``auction/telemetry``,
``reclamation@3`` and ``reclamation/telemetry`` moved only in flow summaries
(sent, received, loss, goodput, p50 / p99), ``bottleneck_utilization``,
``reserved_goodput_bps``, the adaptive arm's learned ``live_factor``, the
``reclaim_overbooking_factor`` gauge and the ``policer.verdict`` span's
``goodput_mbps``; both ``deadline`` arms lost only each record's null
``budget_mist``.  Every admission, quote, price, revenue, clearing, escrow,
refund and reclaim count and every buyer outcome held, and the three
``path_contention`` and four ``auction/clearing-*`` keys held byte for byte.

Then, when the five per-buyer records became one ``BuyerOutcome`` (buyer,
arm, requested and granted kbps, quoted price, paid MIST, refusal, metrics):
every key's ``traces`` and ``metrics`` held byte for byte, and in every
``result`` only names moved.  An auction buyer became two records, one per
arm, and its valuation moved to ``valuations_micromist``; a flex probe's
``flex_start`` and ``start`` moved to the result's ``flex_values`` and
``window_starts``; a path buyer's ``escrow_mist`` and ``failed_hop`` moved
to ``escrows_mist`` and ``failed_hops``; a reclamation buyer's
``admitted_at`` moved to its arm's ``admitted_at``.  Leaves the common
fields derive were dropped: ``offset`` and ``expiry`` (from the start),
``estimated_price_mist`` (equal to the price paid in every run), ``kind``
(the buyer's name), ``legs_won`` (all legs or none) and ``refund_mist``
(escrow less paid).  A served buyer's success marker — ``"fits"``,
``"admitted"``, ``"won"``, a path winner's ``""`` — became a ``null``
refusal, and ``admitted`` / ``auction_won`` / ``reserved`` became a granted
bandwidth.  The leaves no old record had (``arm``, ``granted_kbps``, a paid
price where none was kept, a quote where none was kept) are new, not moved.

Last, when first come, first served and overbooking became one admission
rule with one refusal wording: exactly four leaves moved, the ``refusal`` of
buyers 10 and 11 in the ``static`` arm of ``reclamation@3`` and of
``reclamation/telemetry``, from ``"needs 1250 kbps, overbooked limit 12500
kbps already carries 12500 kbps"`` to ``"needs 1250 kbps, only 0 kbps
free"``; every other leaf of the 28 keys held byte for byte.

Under pytest a configuration the claim tests share comes from the session's
``experiment_runs`` memo (``conftest.py``), so it runs once.

To re-record (only when an experiment's *result* is meant to change — another
scenario constant, a new result field, a different pricer — never to make a
refactor pass)::

    PYTHONPATH=src:. python tests/netsim/test_experiment_equivalence.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
import re

import pytest

from repro.netsim import (
    auction_experiment,
    congestion_experiment,
    contention_experiment,
    deadline_experiment,
    flex_market_experiment,
    linear_path,
    path_contention_experiment,
    reclamation_experiment,
    scenarios,
)
from repro.telemetry import ExperimentTelemetry
from tests.netsim.conftest import ExperimentRuns

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "experiment_equivalence.json"
ARMS = ("monolithic", "sharded")
#: Runs recorded once per arm of the former geometry option.
ARMED = (
    "contention/8x2000@3",
    "contention/5x3000@4",
    "auction/clearing-seed3@3",
    "auction/clearing-seed5@3",
    "flex_market",
    "deadline",
)


def _canonical(value):
    """JSON-ready form of a result: dataclasses by field, floats rounded."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _observed(telemetry: ExperimentTelemetry) -> dict:
    """What a telemetry run collected, minus ids and wall-clock readings."""
    dump = telemetry.to_dict()
    return {
        "traces": [
            [trace["name"], [[span["name"], span["attrs"]] for span in trace["spans"]]]
            for trace in dump["traces"]
        ],
        "metrics": {
            row["name"]: [row["kind"], row["labelnames"], row["children"]]
            for row in dump["metrics"]
            if not row["name"].endswith("_seconds")
        },
    }


# The congestion run whose links are 8 Mbps: the seam to a rate no caller varies.
EIGHT_MBPS_LINKS = functools.partial(scenarios.build_path_simulation, link_rate_bps=8_000_000.0)


def run_experiments(run) -> dict:
    """Every recorded run; ``run(experiment, num_ases, constants=..., **options)``
    runs one configuration over ``linear_path(num_ases)`` with those
    ``repro.netsim.scenarios`` constants set (an :class:`ExperimentRuns`: the
    session's ``experiment_runs`` memo under pytest)."""
    runs: dict = {}

    for ases in (3, 4):
        for protected in (True, False):
            label = "protected" if protected else "unprotected"
            runs[f"congestion/{label}@{ases}"] = run(
                congestion_experiment, ases, constants={"CONGESTION_SECONDS": 0.5},
                protected=protected,
            )
    runs["congestion/rates@4"] = run(
        congestion_experiment,
        4,
        constants={
            "VICTIM_RATE_BPS": 1_500_000.0,
            "FLOOD_RATE_BPS": 12_000_000.0,
            "build_path_simulation": EIGHT_MBPS_LINKS,
            "CONGESTION_SECONDS": 0.4,
        },
        protected=True,
    )

    runs["contention/8x2000@3"] = run(
        contention_experiment, 3, num_buyers=8, duration=0.5
    )
    runs["contention/5x3000@4"] = run(
        contention_experiment, 4, constants={"PER_BUYER_KBPS": 3000},
        num_buyers=5, duration=0.4,
    )

    runs["auction/packets@3/monolithic"] = run(auction_experiment, 3, duration=0.5)
    runs["auction/packets@4/sharded"] = run(
        auction_experiment, 4, constants={"VALUATIONS_SEED": 2}, num_buyers=6, duration=0.4
    )
    for seed in (3, 5):
        runs[f"auction/clearing-seed{seed}@3"] = run(
            auction_experiment, 3, constants={"VALUATIONS_SEED": seed}, duration=0
        )

    runs["flex_market"] = flex_market_experiment(duration=0.3)
    with pytest.MonkeyPatch.context() as patch:  # the seam: three probes on four ASes
        patch.setattr(scenarios, "FLEX_CHAIN_ASES", 4)
        patch.setattr(scenarios, "FLEX_VALUES", (0, 600, 1800))
        runs["flex_market/three-budgets@4"] = flex_market_experiment(duration=0.3)

    runs["path_contention@3"] = run(path_contention_experiment, 3, num_buyers=8)
    runs["path_contention@4"] = run(path_contention_experiment, 4, num_buyers=6)

    runs["reclamation@3"] = run(reclamation_experiment, 3, duration=3.0)

    runs["deadline"] = deadline_experiment()
    for key in ARMED:
        result = runs.pop(key)
        runs.update({f"{key}/{arm}": result for arm in ARMS})

    recording = {key: {"result": result} for key, result in runs.items()}

    def observed(name: str, experiment, *args, **options) -> None:
        telemetry = ExperimentTelemetry(name)
        with telemetry.activate():
            result = experiment(*args, **options)
        recording[f"{name}/telemetry"] = {"result": result, **_observed(telemetry)}

    paths = {3: linear_path(3), 4: linear_path(4)}
    observed("contention", contention_experiment, *paths[3], num_buyers=6, duration=0.3)
    observed("flex_market", flex_market_experiment, duration=0.3)
    observed("auction", auction_experiment, *paths[3], num_buyers=6, duration=0.3)
    observed("path_contention", path_contention_experiment, *paths[4], num_buyers=6)
    observed("reclamation", reclamation_experiment, *paths[4], duration=0.6)

    return json.loads(json.dumps(_canonical(recording)))  # tuples as JSON has them


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def replayed(experiment_runs) -> dict:
    return run_experiments(experiment_runs)


def test_every_experiment_result_matches_the_recording(recorded, replayed):
    assert sorted(replayed) == sorted(recorded)
    for key, expected in recorded.items():
        for part in expected:
            assert replayed[key][part] == expected[part], f"{key}: {part}"
        assert sorted(replayed[key]) == sorted(expected), key


def test_the_recording_covers_what_a_reordering_would_move(recorded):
    """A recording with no packet phase, no late admission or no refused buyer
    would pin nothing the refactor can break."""
    assert len(recorded) == 28
    protected = recorded["congestion/protected@3"]["result"]
    unprotected = recorded["congestion/unprotected@3"]["result"]
    assert protected["victim"]["loss_rate"] < 0.01 < unprotected["victim"]["loss_rate"]
    assert protected["attacker"]["received"] > 0

    for key in ("contention/8x2000@3/sharded", "contention/5x3000@4/monolithic"):
        buyers = recorded[key]["result"]["buyers"]
        assert {buyer["refusal"] is None for buyer in buyers} == {True, False}
        assert all(buyer["metrics"]["sent"] > 0 for buyer in buyers)

    packets = recorded["auction/packets@4/sharded"]["result"]
    assert packets["bottleneck_utilization"] > 0
    auctioned = [buyer for buyer in packets["buyers"] if buyer["arm"] == "auction"]
    assert {buyer["refusal"] is None for buyer in auctioned} == {True, False}
    clearing = recorded["auction/clearing-seed5@3/sharded"]["result"]
    assert all(buyer["metrics"] == {} for buyer in clearing["buyers"])

    flex = recorded["flex_market/three-budgets@4"]["result"]
    assert flex["flex_values"] == [0, 600, 1800]
    assert "inf" in flex["curve_prices"]  # an uncoverable window, kept as a string

    # the adaptive arm reclaims at a scan and admits a buyer who was waiting
    adaptive = recorded["reclamation@3"]["result"]["arms"]["adaptive"]
    assert adaptive["reclaim_events"] > 0
    late = [buyer for buyer in adaptive["buyers"] if buyer["buyer"].startswith("late-")]
    assert all(buyer["refusal"] is None for buyer in late)
    assert all(adaptive["admitted_at"][buyer["buyer"]] > 1.7e9 + 0.2 for buyer in late)
    assert all(buyer["metrics"]["sent"] > 0 for buyer in late)
    for arm, reserved in (("none", {False}), ("static", {True, False})):
        buyers = recorded["reclamation@3"]["result"]["arms"][arm]["buyers"]
        assert {
            b["refusal"] is None for b in buyers if b["buyer"].startswith("late-")
        } == reserved

    for arm in ARMS:
        records = recorded[f"deadline/{arm}"]["result"]["records"]
        assert len(records) == 3 and any(record["legs"] for record in records)

    for name in ("contention", "flex_market", "auction", "path_contention", "reclamation"):
        run = recorded[f"{name}/telemetry"]
        assert run["metrics"]
        assert not any(metric.endswith("_seconds") for metric in run["metrics"])
    spans = dict(recorded["auction/telemetry"]["traces"])["traced-reservation"]
    assert [name for name, _ in spans][-1] == "policer.verdict"
    assert dict(recorded["path_contention/telemetry"]["traces"])["traced-path"]


if __name__ == "__main__":
    text = json.dumps(
        run_experiments(ExperimentRuns()),
        indent=1,
        sort_keys=True,
    )
    # one line per buyer / span / metric child: leaf lists and dicts are collapsed
    text = re.sub(
        r"[\[{][^\[\]{}]*[\]}]", lambda leaf: re.sub(r"\s+", " ", leaf.group(0)), text
    )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text + "\n")
    print(f"recorded {FIXTURE}")
