#!/usr/bin/env python3
"""Bandwidth-market mechanics: splitting, fusing, reselling, atomicity.

Demonstrates the control-plane economics of §4.2 on a 3-core-AS mesh:

* an AS issues ONE large asset per interface and lists it; buyers carve
  arbitrary (time x bandwidth) rectangles out of it;
* a reseller buys a large block cheap, splits it in time, and re-lists the
  halves at a markup — assets are freely tradable;
* two hosts buy disjoint rectangles of the same original asset;
* discovery runs through the v2 API: a declarative ``ListingQuery``
  against the incremental ``MarketIndexer``, ``PathSpec`` purchase plans,
  and a client-side budget guard that refuses over-budget submissions;
* an atomic multi-hop purchase aborts when one hop is unavailable and the
  buyer's coin balance is untouched (the atomicity property);
* an AS that cannot serve a redemption refuses it on chain: the buyer holds
  that hop's two assets again and redeems them once capacity is back.

Run:  python examples/bandwidth_market.py
"""

from repro.admission import ACTIVE
from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import BudgetExceeded, deploy_market, purchase_path
from repro.controlplane.workflow import DEFAULT_ASSET_BANDWIDTH_KBPS
from repro.ledger.transactions import Command, Transaction
from repro.marketdata import ListingQuery, PathSpec
from repro.scion import PathLookup, as_crossings, core_mesh_topology, run_beaconing


def main() -> None:
    clock = SimClock(1_700_000_000.0)
    topology = core_mesh_topology(num_cores=3, children_per_core=2)
    deployment = deploy_market(topology, clock=clock, asset_duration=7200)
    store = run_beaconing(topology, timestamp=int(clock.now()))
    lookup = PathLookup(store)

    leaves = [a.isd_as for a in topology.ases if not a.is_core]
    src, dst = leaves[0], leaves[-1]
    paths = lookup.find_paths(src, dst)
    print(f"{len(paths)} paths between {src} and {dst} (market substitutes, §5.3)")

    path = paths[0]
    crossings = as_crossings(path)
    start = int(clock.now()) + 120
    start += (60 - start % 60) % 60

    # --- two buyers carve disjoint rectangles from the same listings --------
    alice = deployment.new_host(funding_sui=50, name="alice")
    bob = deployment.new_host(funding_sui=50, name="bob")
    outcome_a = purchase_path(
        deployment, alice, crossings, start, start + 600, bandwidth_kbps=10_000
    )
    # Alice's granule-aligned purchase fragmented the listings; Bob picks a
    # later window that fits inside the re-listed tail remainders.
    outcome_b = purchase_path(
        deployment, bob, crossings, start + 1200, start + 1800, bandwidth_kbps=50_000
    )
    print(
        f"alice reserved 10 Mbps x 10 min on {len(outcome_a.reservations)} hops "
        f"for {outcome_a.price_mist} MIST"
    )
    print(
        f"bob   reserved 50 Mbps x 10 min on {len(outcome_b.reservations)} hops "
        f"for {outcome_b.price_mist} MIST (carved from the same original assets)"
    )

    # --- a reseller splits an owned asset and re-lists at a markup -----------
    # Discovery goes through the incremental off-chain index: a declarative
    # ListingQuery in, the cheapest priced candidate out (no ledger scan).
    reseller = deployment.new_host(funding_sui=200, name="reseller")
    first_as = crossings[0].isd_as
    candidate = deployment.indexer.best(
        ListingQuery(
            isd_as=first_as,
            interface=crossings[0].egress,
            is_ingress=False,
            start=start + 1860,
            expiry=start + 5460,
            bandwidth_kbps=1_000_000,
        )
    )
    if candidate is None:  # best() returns None when nothing covers
        raise SystemExit("no listing covers the reseller's rectangle")
    listing, price, buy_start, buy_expiry = candidate.as_tuple()
    submitted = reseller.executor.submit(
        Transaction(
            sender=reseller.account.address,
            commands=[
                Command("market", "buy", {
                    "marketplace": deployment.marketplace,
                    "listing": listing,
                    "start": buy_start,
                    "expiry": buy_expiry,
                    "bandwidth_kbps": 1_000_000,
                    "payment": reseller.payment_coin,
                }),
            ],
        )
    )
    block = submitted.effects.returns[0]["asset"]
    half = (buy_expiry - buy_start) // 2
    mid = buy_start + half - half % 60  # splits must respect the granularity
    resale = reseller.executor.submit(
        Transaction(
            sender=reseller.account.address,
            commands=[
                Command("asset", "split_time", {"asset": block, "split_at": mid}),
                Command("market", "register_seller", {"marketplace": deployment.marketplace}),
                Command("market", "create_listing", {
                    "marketplace": deployment.marketplace,
                    "asset": block,
                    "price_micromist_per_unit": 90,  # bought at 50, resells at 90
                }),
            ],
        )
    )
    print(
        f"reseller bought a 1 Gbps x 1 h block, split it, re-listed half at "
        f"1.8x markup (tx {'ok' if resale.effects.ok else 'aborted'})"
    )

    # --- budget guard: the client refuses to submit over-budget plans --------
    cheapskate = deployment.new_host(funding_sui=50, name="cheapskate")
    plan = cheapskate.plan_path(
        deployment.marketplace,
        PathSpec(crossings, start + 1200, start + 1800, 10_000),
    )
    try:
        cheapskate.atomic_buy_and_redeem(
            deployment.marketplace, plan, max_price_mist=plan.price_mist // 2
        )
    except BudgetExceeded as refused:
        print(f"budget guard refused client-side (no gas spent): {refused}")

    # --- atomicity: a failing hop rolls back the whole purchase --------------
    mallory = deployment.new_host(funding_sui=0.0000005, name="mallory")
    before = coin_balance(deployment.ledger, mallory.account.address)
    assets_before = len(mallory.owned_assets())
    plan = mallory.plan_path(
        deployment.marketplace,
        PathSpec(crossings, start + 1200, start + 1800, 10_000),
    )
    submitted = mallory.atomic_buy_and_redeem(deployment.marketplace, plan)
    after = coin_balance(deployment.ledger, mallory.account.address)
    print(
        f"underfunded atomic purchase: status={submitted.effects.status} "
        f"({submitted.effects.error}); balance {before} -> {after} MIST, "
        f"assets {assets_before} -> {len(mallory.owned_assets())} "
        "(nothing charged, nothing granted: all-or-nothing)"
    )

    # --- a refused redemption ends on chain ----------------------------------
    # An operator commitment takes the middle AS's whole live ingress
    # capacity, so it cannot serve a reservation there: it refuses.
    middle = crossings[len(crossings) // 2]
    service = deployment.service(middle.isd_as)
    window = (start + 2400, start + 3000)
    hog = service.admission.admit_reservation(
        middle.ingress, True, DEFAULT_ASSET_BANDWIDTH_KBPS, *window, tag="ops"
    )
    carol = deployment.new_host(funding_sui=50, name="carol")
    try:
        purchase_path(deployment, carol, crossings, *window, bandwidth_kbps=10_000)
    except RuntimeError as refused:
        print(f"purchase refused on chain: {refused}")
    delivered = carol.collect_reservations()
    print(
        f"carol got {len(delivered)} of {len(crossings)} hops, refusals "
        f"{sorted(carol.refused.values())}, holds {len(carol.owned_assets())} "
        "returned assets"
    )
    service.admission.release(middle.ingress, True, hog.commitment, layer=ACTIVE)
    ingress, egress = sorted(
        carol.owned_assets(), key=lambda asset: not asset.payload["is_ingress"]
    )
    carol.redeem_pair(ingress.object_id, egress.object_id)
    service.poll_and_deliver()
    print(
        f"capacity back: the returned pair redeemed into "
        f"{len(carol.collect_reservations())} reservation at {middle.isd_as}"
    )


if __name__ == "__main__":
    main()
