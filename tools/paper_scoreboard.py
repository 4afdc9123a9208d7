#!/usr/bin/env python3
"""The paper's evaluation beside this reproduction's, as one markdown scoreboard.

    python tools/paper_scoreboard.py > docs/reproduction.md

One function per artefact measures ours, one value per row; its decorator
declares each row's quantity and the paper's value.  Exit status 1 if any
row's check fails; a failed contract call raises.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import platform
import random
import sys
from collections import namedtuple
from statistics import fmean, median

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.clock import SimClock
from repro.contracts import AssetContract, CoinContract, MarketContract
from repro.controlplane import CpPki, deploy_market, purchase_path
from repro.crypto import PrfFactory, pack_resinfo_input
from repro.hummingbird import (
    FirstFitColoring, Interval, pack_flyover_mac_input, policing_array_bytes,
)
from repro.ledger import Account, Command, Ledger, Transaction, sui_to_mist
from repro.netsim import congestion_experiment, linear_path
from repro.perfmodel import papertimings as paper
from repro.perfmodel.measure import ROUNDS, alternating, measure_router, measure_source, time_op
from repro.scion import IsdAs, PathLookup, as_crossings, linear_topology, run_beaconing
from repro.scion.hopfields import pack_hopfield_mac_input
from frame_count import count_frames  # tools/, beside this script

T0 = 1_700_000_000
HOPS = (1, 2, 4, 8, 16)  # the path lengths of Fig. 4 and Table 1
PURCHASES = 40  # per path length in Fig. 4; the paper makes 100

# Our side of a row: a comparison that survives Python against DPDK (None: ours ÷ paper)
# and the check ours must pass (``ok`` None: no check).  A bare value is ``Ours(value)``.
Ours = namedtuple("Ours", "value comparison check ok", defaults=(None, "", None))

# (section title, [(quantity, the paper's value)], measure) per artefact, in order.
ARTEFACTS: list[tuple[str, list[tuple[str, float | str | None]], object]] = []


def artefact(title: str, rows: list[tuple[str, float | str | None]]):
    """Declare a section: its title, and each row's quantity and paper value (or None)."""
    return lambda measure: ARTEFACTS.append((title, rows, measure)) or measure


def cell(value: float | str | None) -> str:
    if value is None or isinstance(value, str):
        return value or "—"
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def share(part: float, whole: float, paper_part: float, paper_whole: float) -> str:
    return f"{part / whole:.0%} of the whole (paper {paper_part / paper_whole:.0%})"


def within(value: float, expected: float, rel: float = 1e-6) -> bool:
    """``value == pytest.approx(expected, rel=rel)``; the default is approx's."""
    return abs(value - expected) <= rel * abs(expected)


def purchases(hops: int, count: int, lead: int) -> list:
    """``count`` atomic buy-and-redeems on a fresh ``hops``-AS chain, each by a
    fresh host, of one 600 s window ``lead`` seconds ahead."""
    clock, topology = SimClock(float(T0)), linear_topology(max(hops, 2))
    deployment = deploy_market(topology, clock=clock, seed=7, asset_duration=14_400)
    lookup = PathLookup(run_beaconing(topology, timestamp=T0))
    path = lookup.find_paths(topology.ases[-1].isd_as, topology.ases[0].isd_as)[0]
    start = int(clock.now()) + lead
    return [
        purchase_path(deployment, deployment.new_host(funding_sui=1000), as_crossings(path)[:hops],
                      start=start, expiry=start + 600, bandwidth_kbps=4000)
        for _ in range(count)
    ]


@artefact("Fig. 4 — atomic buy-and-redeem latency vs path length (simulated s)", [
    ("purchases per path length", 100),
    ("share of all totals under 3 s", 0.83),
    ("spread of the median totals across h", "largely independent of h"),
    *((f"median total of {PURCHASES} purchases, h={h}", None) for h in HOPS),
])
def fig4() -> list:
    # One window for all: past the first split, purchases only split bandwidth; no fragments.
    totals = {h: [o.latency.total for o in purchases(h, PURCHASES, 3600)] for h in HOPS}
    under3 = fmean(t < 3.0 for values in totals.values() for t in values)
    medians = {h: median(values) for h, values in totals.items()}
    spread = max(medians.values()) - min(medians.values())
    return [
        PURCHASES,
        Ours(under3, check="> 0.5", ok=under3 > 0.5),
        Ours(spread, f"{spread / medians[1]:.0%} of h=1's median", "< 1.0 s", spread < 1.0),
        *(Ours(medians[h], f"÷ h=1's median {medians[h] / medians[1]:.2f}",
               "median total < 5 s", medians[h] < 5.0) for h in HOPS),
    ]


PAPER_TABLE1 = {1: (0.00075, 0.031), 2: (0.00075, 0.062), 4: (0.00075, 0.12),
                8: (0.0015, 0.25), 16: (0.0030, 0.49)}  # hops -> (computation, total)


@artefact("Table 1 — gas of one atomic buy-and-redeem per path length (SUI)", [
    *((f"{name}, h={h}", sui) for h, paid in PAPER_TABLE1.items()
      for name, sui in zip(("computation", "total"), paid)),
    ("total per added hop, h=1 to 16", (PAPER_TABLE1[16][1] - PAPER_TABLE1[1][1]) / 15),
])
def table1() -> list:
    rows, totals = [], {}
    for h, (computation, total) in PAPER_TABLE1.items():
        gas = purchases(h, 1, 120)[0].gas
        ours, totals[h] = gas.computation_cost, gas.total_sui
        rows += [Ours(ours, check="= paper's", ok=within(ours, computation)),
                 Ours(totals[h], check="within 25 %", ok=within(totals[h], total, rel=0.25))]
    return [*rows, (totals[16] - totals[1]) / 15]


PAPER_TABLE2 = {  # contract call -> total SUI; negative where the rebate exceeds the cost
    "issue": 0.0029, "split_time": 0.0029, "split_bandwidth": 0.0029,
    "fuse_time": -0.0013, "fuse_bandwidth": -0.0013, "redeem": 0.00012,
    "deliver_reservation": -0.0027, "create_marketplace": 0.0028, "register_seller": 0.0024,
    "create_listing": 0.0050, "buy (full)": -0.0023, "buy (split bw)": 0.0039,
    "buy (split time)": 0.010, "buy (split both)": 0.016,
}
BUYS = {"full": (0, 3600, 1_000_000), "split bw": (0, 3600, 4_000),
        "split time": (600, 1200, 1_000_000), "split both": (600, 1200, 4_000)}


def table2_gas() -> dict:
    """Contract call -> its gas, each call run alone on a scripted one-AS market."""
    rng, ledger = random.Random(2), Ledger()
    pki = CpPki(rng)  # the root is the stream's first draw, no account's
    for contract in (CoinContract(), AssetContract(pki), MarketContract()):
        ledger.register_contract(contract)
    seller, buyer = Account.generate(rng, "as"), Account.generate(rng, "buyer")

    def run(call: str, sender=seller, **args):
        effects = ledger.execute(Transaction(sender.address, [Command(*call.split("."), args)]))
        if not effects.ok:
            raise RuntimeError(f"{call}: {effects.error}")
        return effects

    def issue(interface=1, ingress=True):
        return run("asset.issue", token=token, bandwidth_kbps=1_000_000, start=0, expiry=3600,
                   granularity=60, min_bandwidth_kbps=100, interface=interface, is_ingress=ingress)

    def listing():
        return run("market.create_listing", marketplace=marketplace,
                   asset=issue().returns[0]["asset"], price_micromist_per_unit=50)

    certificate = pki.issue_certificate(IsdAs(1, 7), seller.signing_key.public)
    token = run("asset.register_as", certificate=certificate,
                signature=seller.signing_key.sign(seller.address.encode())).returns[0]["token"]
    coin = run("coin.mint", buyer, amount=sui_to_mist(100)).returns[0]["coin"]
    gas = {"issue": issue().gas}
    asset = issue().returns[0]["asset"]  # split and fused back in time, then in bandwidth
    for way, cut in (("time", {"split_at": 1800}), ("bandwidth", {"bandwidth_kbps": 400_000})):
        pieces = run(f"asset.split_{way}", asset=asset, **cut)
        gas[f"split_{way}"] = pieces.gas
        gas[f"fuse_{way}"] = run(f"asset.fuse_{way}", **pieces.returns[0]).gas
    redeem = run("asset.redeem", ingress=issue(1, True).returns[0]["asset"],
                 egress=issue(2, False).returns[0]["asset"], public_key=bytes(256))
    gas["redeem"] = redeem.gas
    gas["deliver_reservation"] = run("asset.deliver_reservation", kem_share=bytes(256),
                                     ciphertext=bytes(200), tag=bytes(16), **redeem.returns[0]).gas
    created = run("market.create_marketplace")
    marketplace = created.returns[0]["marketplace"]
    gas["create_marketplace"] = created.gas
    gas["register_seller"] = run("market.register_seller", marketplace=marketplace).gas
    listing()
    gas["create_listing"] = listing().gas
    for name, (start, expiry, bandwidth) in BUYS.items():
        gas[f"buy ({name})"] = run("market.buy", buyer, marketplace=marketplace, payment=coin,
                                   listing=listing().returns[0]["listing"], start=start,
                                   expiry=expiry, bandwidth_kbps=bandwidth).gas
    return gas


@artefact("Table 2 — gas of each contract call (total SUI)", list(PAPER_TABLE2.items()))
def table2() -> list:
    gas = {name: charged.total_sui for name, charged in table2_gas().items()}
    return [Ours(gas[name], check="same sign as paper's", ok=(gas[name] < 0) == (total < 0))
            for name, total in PAPER_TABLE2.items()]


ROUTER_STEPS = paper.ROUTER_STEPS_SCION + paper.ROUTER_STEPS_HUMMINGBIRD_EXTRA


@artefact("Table 3 — border-router processing per packet (ns)", [
    *ROUTER_STEPS,
    ("sum of the steps we time alone", None),
    ("SCION hop", paper.SCION_FORWARD_NS),
    ("Hummingbird hop", paper.HUMMINGBIRD_FORWARD_NS),
    ("Hummingbird's extra over a SCION hop", paper.HUMMINGBIRD_EXTRA_NS),
    ("Hummingbird : SCION hop", paper.HUMMINGBIRD_FORWARD_NS / paper.SCION_FORWARD_NS),
    ("Python frames per hop, Hummingbird : SCION",
     paper.HUMMINGBIRD_FORWARD_NS / paper.SCION_FORWARD_NS),
    ("Python frames a reserved hop adds over a plain hop", None),
])
def table3() -> list:
    runs = [measure_router() for _ in range(ROUNDS)]
    hop, scion, extra = (fmean(getattr(run, field) for run in runs) for field in (
        "hummingbird_process_ns", "scion_process_ns", "hummingbird_overhead_ns"))
    steps = {name: fmean(run.steps[name] for run in runs) for name in runs[0].steps}
    timed, paper_timed = sum(steps.values()), sum(ns for n, ns in ROUTER_STEPS if n in steps)
    frames = count_frames()
    reserved, plain = sum(frames.reserved_hop.values()), sum(frames.scion_hop.values())
    return [
        *(Ours(steps[name], share(steps[name], hop, ns, paper.HUMMINGBIRD_FORWARD_NS))
          if name in steps else Ours("not timed alone") for name, ns in ROUTER_STEPS),
        Ours(timed, share(timed, hop, paper_timed, paper.HUMMINGBIRD_FORWARD_NS),
             "≤ Hummingbird hop", timed <= hop),
        scion, hop,
        Ours(extra, f"÷ SCION hop {extra / scion:.2f} (paper "
             f"{paper.HUMMINGBIRD_EXTRA_NS / paper.SCION_FORWARD_NS:.2f})"),
        Ours(hop / scion, check="> 1", ok=hop > scion),
        # the same ratio as work, which does not move with the box
        Ours(reserved / plain, f"{reserved} : {plain} frames, beside the paper's timed ratio",
             "≤ 2.5", reserved / plain <= 2.5),
        # a ratio rewards a slow plain hop; the difference is what the
        # flyover steps cost: A_i, its keying, the flyover MAC, policing
        Ours(reserved - plain, f"{reserved} - {plain} frames: Table 3's extra steps",
             "≤ 6", reserved - plain <= 6),
    ]


SOURCE_STAGES = {
    "Add header fields": paper.SOURCE_HEADERS_NS,
    "Compute flyover MACs": paper.SOURCE_FLYOVER_MACS_4HOPS_NS,
    "Add hop fields": paper.SOURCE_HOPFIELDS_4HOPS_NS,
    "Add payload": paper.SOURCE_PAYLOAD_500_NS,
}
# Hummingbird generation at 500 B per measured path length (a path needs two ASes).
GENERATION = {h: paper.hummingbird_generation_ns(h, 500) for h in (2, 4, 8)}


@artefact("Table 4 — source packet generation, 4 AS-level hops (ns)", [
    *((f"{stage}, 500 B", ns) for stage, ns in SOURCE_STAGES.items()),
    ("sum of the four stages, 500 B", sum(SOURCE_STAGES.values())),
    ("Hummingbird generation, 500 B", GENERATION[4]),
    ("SCION generation, 500 B", paper.scion_generation_ns(4, 500)),
    ("Hummingbird : SCION generation, 500 B", GENERATION[4] / paper.scion_generation_ns(4, 500)),
    (f"1500 B less 500 B, Hummingbird generation ({ROUNDS} alternating runs)",
     paper.hummingbird_generation_ns(4, 1500) - GENERATION[4]),
])
def table4() -> list:
    small, large = alternating(*(lambda size=size: measure_source(4, payload=size, iterations=400)
                                 for size in (500, 1500)))
    # Medians, as inside each run: one descheduled reading moves nothing.
    generation, scion = (median(getattr(run, f"{kind}_generation_ns") for run in small)
                         for kind in ("hummingbird", "scion"))
    stages = {stage: median(run.stages[stage] for run in small) for stage in SOURCE_STAGES}
    staged_share = median(run.staged_share for run in small)  # round by round
    return [
        *(Ours(stages[stage], share(stages[stage], generation, ns, GENERATION[4]))
          for stage, ns in SOURCE_STAGES.items()),
        Ours(sum(stages.values()), f"{staged_share:.0%} of the generation, round by round",
             "≤ Hummingbird generation", staged_share <= 1),
        generation, scion,
        Ours(generation / scion, check="> 1", ok=generation > scion),
        Ours(median(run.hummingbird_generation_ns for run in large) - generation, "no per-byte "
             "cost: a packet refers to its payload until packets are bytes (ROADMAP item 17)"),
    ]


SCALED = " (paper: Table 4's h=4 costs scaled per hop)"  # the paper measured h=4 only


@artefact("Fig. 14 — Hummingbird ns per packet vs path length h, 500 B, one core", [
    *((f"Hummingbird ns per packet, h={h}{'' if h == 4 else SCALED}", ns)
      for h, ns in GENERATION.items()),
    (f"cost at h=8 ÷ cost at h=2{SCALED}", GENERATION[8] / GENERATION[2]),
])
def fig14() -> list:
    runs = alternating(*(lambda h=h: measure_source(h, payload=500, iterations=200)
                         for h in GENERATION))
    measured = {h: fmean(run.hummingbird_generation_ns for run in hop_runs)
                for h, hop_runs in zip(GENERATION, runs)}
    return [*measured.values(), measured[8] / measured[2]]


RESID_WORKLOADS = {  # name -> draw of one (start, length)
    "uniform arrivals": lambda r: (r.uniform(0, 1000), r.uniform(1, 60)),
    "bursty arrivals": lambda r: (r.choice([0, 100, 200]) + r.uniform(0, 5), r.uniform(1, 120)),
    "long + short mix": lambda r: (r.uniform(0, 1000), r.choice([5, 600])),
}


@artefact("Ablations — ResID colouring (§4.4), QoS under flood (D2), PRF backend", [
    *((f"First-Fit colours ÷ optimal, {workload}", 3) for workload in RESID_WORKLOADS),
    ("policing array, 100 Gbps at 100 kbps (MB)", 24),
    ("policing array, 100 Gbps at 4 Mbps (kB)", 600),
    ("2 Mbps reserved victim's goodput under a 2x flood (Mbps)", None),
    ("reserved ÷ best-effort victim goodput", None),
    ("PRF per block, BLAKE2 ÷ AES", None),
    ("PRF keyed for one block (a router's A_i), BLAKE2 ÷ AES", None),
])
def ablations() -> list:
    rng, rows = random.Random(5), []
    for draw in RESID_WORKLOADS.values():
        coloring, edges = FirstFitColoring(), []
        for start, length in (draw(rng) for _ in range(2000)):
            coloring.assign(Interval(start, start + length))
            edges += [(start, 1), (start + length, -1)]
        optimal = max(itertools.accumulate(delta for _, delta in sorted(edges)))  # deepest overlap
        ratio = coloring.colors_in_use / optimal
        rows.append(Ours(ratio, f"{coloring.colors_in_use} colours, {optimal} optimal", "< 3",
                         ratio < 3.0))
    unprotected, protected = (congestion_experiment(*linear_path(4), protected=flag)
                              .victim["goodput_mbps"] for flag in (False, True))
    # The blocks a reserved hop MACs: its hop field under K_i, its ResInfo
    # under SV_i (giving A_i), the flyover input under A_i.
    hop_block = pack_hopfield_mac_input(7, T0, 63, 1, 2)
    resinfo_block = pack_resinfo_input(1, 2, 3, 4, T0, 600)
    flyover_block = pack_flyover_mac_input(IsdAs(1, 2), 600, 10, 1, 2)
    factories = [PrfFactory(backend) for backend in ("aes", "blake2")]
    prfs = [factory(bytes(16)) for factory in factories]
    aes, blake2 = (sum(runs) for runs in alternating(
        *(lambda prf=prf: time_op(lambda: prf.compute(hop_block), 3000) for prf in prfs)))
    # Keyed and used once, as the router's per-packet A_i.
    auth_keys = [prf.compute(resinfo_block) for prf in prfs]
    aes_keyed, blake2_keyed = (sum(runs) for runs in alternating(
        *(lambda factory=factory, key=key: time_op(lambda: factory(key).compute(flyover_block),
                                                   3000)
          for factory, key in zip(factories, auth_keys))))
    return [
        *rows,
        policing_array_bytes(100_000_000, 100) / 1e6,
        policing_array_bytes(100_000_000, 4_000) / 1e3,
        Ours(protected, f"÷ its reservation {protected / 2:.2f}", "> 1.9", protected > 1.9),
        Ours(protected / unprotected, f"{protected:.2f} vs {unprotected:.2f} Mbps", "> 3",
             protected > 3 * unprotected),
        # A held BLAKE2 key continues a copy of its keyed state: 0.59-0.68 over seven runs.
        Ours(blake2 / aes, f"{blake2 / ROUNDS:.0f} vs {aes / ROUNDS:.0f} ns (paper: AES only)",
             "< 1", blake2 < aes),
        Ours(blake2_keyed / aes_keyed,
             f"{blake2_keyed / ROUNDS:.0f} vs {aes_keyed / ROUNDS:.0f} ns (paper: AES only)",
             "< 1", blake2_keyed < aes_keyed),
    ]


HEADER = f"""\
# Reproduction scoreboard

Written by `python tools/paper_scoreboard.py > docs/reproduction.md` (exit 1 if a check fails;
CI runs it) with Python {platform.python_version()} on {platform.machine()}, {os.cpu_count()} cores.
Our data plane is Python calling OpenSSL's AES per block, the paper's DPDK with AES-NI; the
comparison column gives what survives that.  Figs. 5 and 15 are not reproduced: they are
multi-core DPDK line-rate curves, and on one Python core they would restate Tables 3 and 4.
Timed checks compare {ROUNDS} runs taken in alternating order; every check holds on every run."""


def main() -> int:
    print(HEADER)
    failed = 0
    for title, rows, measure in ARTEFACTS:
        ours = [row if isinstance(row, Ours) else Ours(row) for row in measure()]
        if len(ours) != len(rows):
            raise RuntimeError(f"{title}: {len(ours)} rows measured, {len(rows)} declared")
        print(f"\n## {title}\n\n| Quantity | Paper | Ours | Comparison | Check | Result |")
        print("|---|---|---|---|---|---|")
        for (quantity, theirs), row in zip(rows, ours):
            numbers = all(isinstance(v, (int, float)) for v in (row.value, theirs))
            comparison = row.comparison if row.comparison is not None else (
                f"ours ÷ paper {row.value / theirs:.3g}" if numbers else "")
            result = "" if row.ok is None else "pass" if row.ok else "**FAIL**"
            failed += row.ok is False
            print(f"| {quantity} | {cell(theirs)} | {cell(row.value)} | {comparison} "
                  f"| {row.check} | {result} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
