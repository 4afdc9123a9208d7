"""Every netsim experiment returns exactly what it returned before.

``run_experiments`` drives all seven ``*_experiment`` functions once, seeded,
over ``linear_path(3)`` and ``linear_path(4)``: ``congestion_experiment``
protected and unprotected plus one call with its three rates varied;
``contention_experiment`` at two ``(num_buyers, per_buyer_kbps)`` on both
calendars; ``auction_experiment`` with a packet phase and clearing-only at two
seeds on both calendars; ``flex_market_experiment`` on both calendars and with
three flex budgets; ``path_contention_experiment`` on three and four ASes;
``reclamation_experiment`` (short enough to stay cheap, long enough that the
adaptive arm reclaims and admits a waiting buyer at a scan);
``deadline_experiment`` on both calendars; then the five experiments that take
``telemetry`` once more under an :class:`ExperimentTelemetry`.

Recorded per key: the whole result dataclass (``dataclasses.fields``,
recursively; floats to 12 significant digits, non-finite ones as the strings
``"inf"`` / ``"nan"``) and, for a telemetry run, ``extra``, every trace's name
with its ordered ``[span name, attrs]`` list and every metric family except the
wall-clock ones (``*_seconds``).  Trace ids, span starts and durations are
dropped: they are the only parts of a dump that differ between two runs.

The recording committed beside this file was made at the commit *before*
``netsim/`` got its one traffic phase (``PathSimulation.send`` / ``run`` /
``stop``; PR 20), with that commit's ``src/`` on the path; today's code has to
reproduce it byte for byte.  Every goodput, latency and utilisation in it
depends on the order in which sources are constructed and started (the event
loop breaks ties FIFO, and the flows of one simulation share one ``rng``), so
a refactor that reorders two ``start`` calls fails here, not in a plot.

To re-record (only when an experiment's *result* is meant to change — another
scenario constant, a new result field, a different pricer — never to make a
refactor pass)::

    PYTHONPATH=src:. python tests/netsim/test_experiment_equivalence.py
"""

from __future__ import annotations

import dataclasses
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
)
from repro.telemetry import ExperimentTelemetry

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "experiment_equivalence.json"
SHARD = 600.0
CALENDARS = {"monolithic": None, "sharded": SHARD}


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
        "extra": dump["extra"],
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


def run_experiments() -> dict:
    paths = {3: linear_path(3), 4: linear_path(4)}
    runs: dict = {}

    for ases in paths:
        for protected in (True, False):
            label = "protected" if protected else "unprotected"
            runs[f"congestion/{label}@{ases}"] = congestion_experiment(
                *paths[ases], protected=protected, duration=0.5
            )
    runs["congestion/rates@4"] = congestion_experiment(
        *paths[4],
        protected=True,
        victim_rate_bps=1_500_000.0,
        flood_rate_bps=12_000_000.0,
        link_rate_bps=8_000_000.0,
        duration=0.4,
    )

    for calendar, width in CALENDARS.items():
        runs[f"contention/8x2000@3/{calendar}"] = contention_experiment(
            *paths[3], num_buyers=8, duration=0.5, shard_seconds=width
        )
        runs[f"contention/5x3000@4/{calendar}"] = contention_experiment(
            *paths[4], num_buyers=5, per_buyer_kbps=3000, duration=0.4,
            shard_seconds=width,
        )

    runs["auction/packets@3/monolithic"] = auction_experiment(*paths[3], duration=0.5)
    runs["auction/packets@4/sharded"] = auction_experiment(
        *paths[4], num_buyers=6, duration=0.4, seed=2, shard_seconds=SHARD
    )
    for calendar, width in CALENDARS.items():
        for seed in (3, 5):
            runs[f"auction/clearing-seed{seed}@3/{calendar}"] = auction_experiment(
                *paths[3], duration=0, seed=seed, shard_seconds=width
            )

    for calendar, width in CALENDARS.items():
        runs[f"flex_market/{calendar}"] = flex_market_experiment(
            duration=0.3, seed=1, shard_seconds=width
        )
    runs["flex_market/three-budgets@4"] = flex_market_experiment(
        num_ases=4, flex_values=(0, 600, 1800), duration=0.3, seed=2
    )

    runs["path_contention@3"] = path_contention_experiment(*paths[3], num_buyers=8)
    runs["path_contention@4"] = path_contention_experiment(*paths[4], num_buyers=6)

    runs["reclamation@3"] = reclamation_experiment(*paths[3], duration=0.6)

    for calendar, width in CALENDARS.items():
        runs[f"deadline/{calendar}"] = deadline_experiment(
            num_ases=3, transfer_count=3, horizon=1200, seed=5, shard_seconds=width
        )

    recording = {key: {"result": result} for key, result in runs.items()}

    def observed(name: str, experiment, *args, **options) -> None:
        telemetry = ExperimentTelemetry(name)
        result = experiment(*args, telemetry=telemetry, **options)
        recording[f"{name}/telemetry"] = {"result": result, **_observed(telemetry)}

    observed("contention", contention_experiment, *paths[3], num_buyers=6, duration=0.3)
    observed("flex_market", flex_market_experiment, num_ases=3, duration=0.3)
    observed("auction", auction_experiment, *paths[3], num_buyers=6, duration=0.3)
    observed("path_contention", path_contention_experiment, *paths[4], num_buyers=6)
    observed("reclamation", reclamation_experiment, *paths[4], duration=0.6)

    return json.loads(json.dumps(_canonical(recording)))  # tuples as JSON has them


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    return run_experiments()


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
        assert {buyer["admitted"] for buyer in buyers} == {True, False}
        assert all(buyer["metrics"]["sent"] > 0 for buyer in buyers)

    packets = recorded["auction/packets@4/sharded"]["result"]
    assert packets["bottleneck_utilization"] > 0
    assert {buyer["auction_won"] for buyer in packets["buyers"]} == {True, False}
    clearing = recorded["auction/clearing-seed5@3/sharded"]["result"]
    assert all(buyer["metrics"] == {} for buyer in clearing["buyers"])

    flex = recorded["flex_market/three-budgets@4"]["result"]
    assert [buyer["flex_start"] for buyer in flex["buyers"]] == [0, 600, 1800]
    assert "inf" in flex["curve_prices"]  # an uncoverable window, kept as a string

    # the adaptive arm reclaims at a scan and admits a buyer who was waiting
    adaptive = recorded["reclamation@3"]["result"]["arms"]["adaptive"]
    assert adaptive["reclaim_events"] > 0
    late = [buyer for buyer in adaptive["buyers"] if buyer["kind"] == "late"]
    assert all(buyer["reserved"] and buyer["admitted_at"] > 1.7e9 + 0.2 for buyer in late)
    assert all(buyer["metrics"]["sent"] > 0 for buyer in late)
    for arm, reserved in (("none", {False}), ("static", {True, False})):
        buyers = recorded["reclamation@3"]["result"]["arms"][arm]["buyers"]
        assert {b["reserved"] for b in buyers if b["kind"] == "late"} == reserved

    for calendar in CALENDARS:
        records = recorded[f"deadline/{calendar}"]["result"]["records"]
        assert len(records) == 3 and any(record["legs"] for record in records)

    for name in ("contention", "flex_market", "auction", "path_contention", "reclamation"):
        run = recorded[f"{name}/telemetry"]
        assert name in run["extra"] and run["metrics"]
        assert not any(metric.endswith("_seconds") for metric in run["metrics"])
    spans = dict(recorded["auction/telemetry"]["traces"])["traced-reservation"]
    assert [name for name, _ in spans][-1] == "policer.verdict"
    assert dict(recorded["path_contention/telemetry"]["traces"])["traced-path"]


if __name__ == "__main__":
    text = json.dumps(run_experiments(), indent=1, sort_keys=True)
    # one line per buyer / span / metric child: leaf lists and dicts are collapsed
    text = re.sub(
        r"[\[{][^\[\]{}]*[\]}]", lambda leaf: re.sub(r"\s+", " ", leaf.group(0)), text
    )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text + "\n")
    print(f"recorded {FIXTURE}")
