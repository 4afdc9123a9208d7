#!/usr/bin/env python3
"""Sealed-bid window auction end to end: bid, settle, redeem, send packets.

Posted scarcity prices (see ``capacity_auction.py``) make the *operator*
guess the demand curve; a sealed-bid uniform-price auction lets the
bidders reveal it.  This example runs the whole protocol on the ledger:

1. an AS auctions a scarce future window on its bottleneck ingress
   interface (reserve = the scarcity-adjusted posted quote);
2. four hosts seal bids with different budgets — nobody sees anyone
   else's price;
3. at the window boundary the AS settles: the contract clears at ONE
   uniform price (the highest losing bid), carves the asset for the
   winners, pays the AS, and refunds every loser atomically;
4. a winner redeems its won asset (plus posted-price pieces for the rest
   of the path) and sends reservation-protected traffic through a
   best-effort flood — the auctioned bandwidth is as real on the data
   plane as any posted purchase.

Run:  python examples/sealed_bid_auction.py
"""

from repro.admission import ScarcityPricer
from repro.analysis import render_comparison
from repro.clock import SimClock
from repro.contracts.coin import coin_balance
from repro.controlplane import deploy_market, purchase_path
from repro.netsim import SIM_PRF, build_path_simulation
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing

T0 = 1_700_000_000
BASE_PRICE = 50  # micromist per kbps-second
ASSET_KBPS = 10_000
AUCTION_KBPS = 6_000  # deliberately less than the four bidders demand
BID_KBPS = 2_500
WINDOW = (T0 + 3600, T0 + 4200)  # the scarce future window up for auction


def main() -> None:
    clock = SimClock(float(T0))
    topology = linear_topology(3)
    store = run_beaconing(topology, timestamp=T0, prf_factory=SIM_PRF)
    path = PathLookup(store).find_paths(
        topology.ases[-1].isd_as, topology.ases[0].isd_as
    )[0]
    crossings = as_crossings(path)
    bottleneck = crossings[1]

    deployment = deploy_market(
        topology,
        clock=clock,
        asset_start=T0,
        asset_duration=3600,
        asset_bandwidth_kbps=ASSET_KBPS,
        interface_capacity_kbps=2 * ASSET_KBPS,
        pricer=ScarcityPricer(),
        prf_factory=SIM_PRF,
        auction_interfaces={(bottleneck.ingress, True)},
    )

    # Posted listings for the demo window everywhere EXCEPT the contended
    # bottleneck ingress — that one goes under the hammer.
    for crossing in crossings:
        service = deployment.service(crossing.isd_as)
        for interface, is_ingress in ((crossing.ingress, True), (crossing.egress, False)):
            if crossing is bottleneck and is_ingress:
                continue
            service.issue_and_list(
                deployment.marketplace, interface, is_ingress,
                ASSET_KBPS, *WINDOW, BASE_PRICE,
            )

    auctioneer = deployment.service(bottleneck.isd_as)
    opened = auctioneer.open_auction(
        deployment.marketplace, bottleneck.ingress, True,
        AUCTION_KBPS, *WINDOW, BASE_PRICE,
    )
    assert opened.effects.ok, opened.effects.error
    auction_id = next(iter(auctioneer.open_auctions))
    record = auctioneer.open_auctions[auction_id]
    print(
        f"AS {auctioneer.isd_as} auctions {AUCTION_KBPS} kbps x "
        f"[{WINDOW[0]}, {WINDOW[1]}) on ingress if={bottleneck.ingress}, "
        f"reserve {record.reserve_micromist_per_unit} µMIST/unit\n"
    )

    # -- sealed bids: four hosts, four private budgets ----------------------
    budgets_mist = [9_000, 6_000, 4_500, 1_500]
    hosts = []
    for index, budget in enumerate(budgets_mist):
        host = deployment.new_host(name=f"bidder-{index}")
        before = coin_balance(deployment.ledger, host.account.address)
        placed = host.place_bid(deployment.marketplace, auction_id, BID_KBPS, budget)
        assert placed.effects.ok, placed.effects.error
        hosts.append((host, budget, before))

    # -- settle at the window boundary --------------------------------------
    clock.set(float(WINDOW[0]))
    settlement = auctioneer.settle_due_auctions()[0]
    rows = []
    winner_host = None
    for host, budget, before in hosts:
        outcome = host.await_settle(deployment.marketplace, auction_id)
        after = coin_balance(deployment.ledger, host.account.address)
        if outcome.won and winner_host is None:
            winner_host = host
        rows.append(
            [
                host.account.name,
                f"{budget}",
                "WON" if outcome.won else "lost",
                f"{outcome.paid_mist}",
                f"{before - after}",
            ]
        )
    print(
        render_comparison(
            ["bidder", "sealed budget (MIST)", "outcome", "paid (MIST)", "net cost"],
            rows,
            title=f"Uniform-price settlement: everyone pays "
            f"{settlement.clearing_price_micromist} µMIST/unit",
            note="winners pay the highest LOSING bid, not their own; losers "
            "are refunded in the same transaction as the awards.",
        )
    )
    print(
        f"\nAS proceeds: {settlement.proceeds_mist} MIST; "
        f"awarded {settlement.awarded_kbps}/{AUCTION_KBPS} kbps; remainder "
        + ("re-listed at the reserve price" if settlement.listing else "fully sold")
    )

    # -- redeem: auction piece + posted egress, rest of the path posted ------
    won_asset = winner_host.await_settle(deployment.marketplace, auction_id).assets[0]
    egress_buy = winner_host.acquire(
        deployment.marketplace, bottleneck.isd_as, bottleneck.egress, False,
        *WINDOW, BID_KBPS, max_price_mist=10_000_000,
    )
    assert egress_buy.mode == "bought" and egress_buy.submitted.effects.ok
    redeemed = winner_host.redeem_pair(
        won_asset, egress_buy.submitted.effects.returns[0]["asset"]
    )
    assert redeemed.effects.ok, redeemed.effects.error
    auctioneer.poll_and_deliver()
    bottleneck_reservations = winner_host.collect_reservations()

    other = purchase_path(
        deployment,
        winner_host,
        [crossing for crossing in crossings if crossing is not bottleneck],
        start=WINDOW[0],
        expiry=WINDOW[1],
        bandwidth_kbps=BID_KBPS,
    )
    reservations = bottleneck_reservations + other.reservations
    print(
        f"\n{winner_host.account.name} redeemed the won asset: "
        f"{len(reservations)} per-AS reservations cover the whole path"
    )

    # -- data plane: the auctioned bandwidth survives a flood ----------------
    simulation = build_path_simulation(
        topology, path, start_time=float(WINDOW[0]) + 0.1, prf_factory=SIM_PRF
    )
    victim_metrics = simulation.send(1, 2_000_000.0, reservations)
    simulation.send(2, 20_000_000.0, delay=0.05)
    simulation.run(1.0)
    summary = victim_metrics.summary()
    print(
        f"through a 2x-overload flood the winner keeps "
        f"{summary['goodput_mbps']:.2f} Mbps goodput "
        f"(p99 latency {summary['p99_ms']:.1f} ms) — "
        "auction-won bandwidth is first-class on the data plane."
    )


if __name__ == "__main__":
    main()
