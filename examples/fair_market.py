#!/usr/bin/env python3
"""Fair, as the market measures it: who is served when demand exceeds supply.

Four netsim experiments put more buyers on one bottleneck, or one path, than
it can carry, each on a deployed market, and this example prints what their
results derive from the buyers' outcomes:

* contention — posted scarcity prices, first come, first served: who got a
  reservation and who fell back to best effort;
* auction — one window sold two ways, by arrival order at posted prices and
  in one sealed-bid uniform-price auction: revenue, allocative efficiency
  (awarded value over the best achievable) and Jain's index over the
  bandwidth awarded;
* path contention — whole paths in one on-chain path auction, all or
  nothing: admitted and refused paths;
* reclamation — an overbooked bottleneck with no-shows under three
  policies: how many buyers end up holding a reservation, and the revenue.

The two auctions also report whether any hop committed more than its
physical capacity.

Run:  python examples/fair_market.py
"""

from repro.analysis import render_comparison
from repro.netsim import (
    admitted,
    auction_experiment,
    contention_experiment,
    efficiency,
    jain_index,
    linear_path,
    path_contention_experiment,
    reclamation_experiment,
    rejected,
)


def main() -> None:
    chain = linear_path(3)
    contention = contention_experiment(*chain, num_buyers=6, duration=0.3)
    auction = auction_experiment(*chain, num_buyers=6, duration=0.3)
    paths = path_contention_experiment(*linear_path(4), num_buyers=6)
    reclamation = reclamation_experiment(*chain, duration=0.6)

    rows = [
        ["contention: posted, FCFS", len(admitted(contention.buyers)),
         len(rejected(contention.buyers)), "-", "-", "-", "-"],
    ]
    for arm, label in (("posted", "auction: posted, by arrival"),
                       ("auction", "auction: sealed bids")):
        buyers = [buyer for buyer in auction.buyers if buyer.arm == arm]
        value = efficiency(buyers, auction.valuations_micromist, auction.capacity_kbps)
        rows.append([
            label, len(admitted(buyers)), len(rejected(buyers)),
            getattr(auction, f"{arm}_revenue_mist"),
            f"{value:.2f}", f"{jain_index(buyers):.2f}", auction.oversold,
        ])
    rows.append(["path auction: all or nothing", len(admitted(paths.buyers)),
                 len(rejected(paths.buyers)), "-", "-", "-", paths.oversold])
    for arm, result in reclamation.arms.items():
        rows.append([f"reclamation: {arm}", len(admitted(result.buyers)),
                     len(rejected(result.buyers)), result.revenue_mist, "-", "-", "-"])
    print(
        render_comparison(
            ["allocation", "served", "refused", "revenue (MIST)", "efficiency",
             "Jain", "oversold"],
            rows,
            title="More buyers than capacity: who is served, and at what price",
            note="the auction awards the window to the highest valuations "
            "(efficiency 1.00); reclaiming no-shows serves the buyers who "
            "were waiting.",
        )
    )


if __name__ == "__main__":
    main()
