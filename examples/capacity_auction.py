#!/usr/bin/env python3
"""Capacity auction: watch prices rise as an interface fills.

The admission subsystem gives every AS a per-interface capacity calendar
and a scarcity pricer.  This example deploys a market where each AS's
physical interface capacity is 10x the first issued asset, then has one AS
keep minting same-window slices on a single ingress interface:

* each successive listing clears admission against the *issued* calendar;
* the posted price is the base price times the scarcity multiplier, so the
  quotes climb along the ``1 + ALPHA * u^2 / (1 - u)`` curve (``ALPHA`` = 0.5);
* when the calendar is full, the next issuance is rejected outright — the
  interface can never be oversold, no matter how eager the seller.

Run:  python examples/capacity_auction.py
"""

from repro.admission import AdmissionRejected, ScarcityPricer
from repro.analysis import line_plot, render_comparison
from repro.clock import SimClock
from repro.controlplane import deploy_market
from repro.scion import linear_topology

SLICE_KBPS = 1_000_000  # 1 Gbps per issued slice
CAPACITY_KBPS = 10_000_000  # 10 Gbps physical interface
BASE_PRICE = 50  # micromist per kbps-second on an empty interface


def main() -> None:
    clock = SimClock(1_700_000_000.0)
    topology = linear_topology(2)
    deployment = deploy_market(
        topology,
        clock=clock,
        asset_duration=3600,
        asset_bandwidth_kbps=SLICE_KBPS,
        interface_capacity_kbps=CAPACITY_KBPS,
        pricer=ScarcityPricer(),
    )
    seller = deployment.service(topology.ases[0].isd_as)
    start = int(clock.now())
    window = (start, start + 3600)

    print(
        f"AS {seller.isd_as} sells 1 Gbps x 1 h slices of a 10 Gbps interface; "
        "the deployment already listed the first slice.\n"
    )
    rows = []
    curve = {}
    utilization = seller.admission.utilization(1, True, *window)
    rows.append(["1 (deploy)", f"{utilization:.0%}", BASE_PRICE, "listed"])
    curve[round(utilization * 10)] = float(BASE_PRICE)

    slice_number = 2
    while True:
        utilization = seller.admission.utilization(1, True, *window)
        quote = seller.admission.quote(BASE_PRICE, 1, True, *window)
        try:
            submitted = seller.issue_and_list(
                deployment.marketplace, 1, True, SLICE_KBPS, *window, BASE_PRICE
            )
        except AdmissionRejected as rejection:
            rows.append([str(slice_number), f"{utilization:.0%}", quote, "REJECTED"])
            print(render_comparison(
                ["slice", "utilization", "price (µMIST/unit)", "outcome"],
                rows,
                title="Scarcity pricing on one ingress interface",
                note="price = base x (1 + 0.5 u^2 / (1 - u)); admission "
                "rejects anything past 100% utilization.",
            ))
            print(f"\nslice {slice_number} bounced: {rejection}")
            break
        assert submitted.effects.ok
        rows.append([str(slice_number), f"{utilization:.0%}", quote, "listed"])
        curve[round(utilization * 10)] = float(quote)
        slice_number += 1

    print()
    print(line_plot(
        {"listing price": sorted(curve.items())},
        title="posted price [µMIST/unit] vs utilization [tenths]",
        x_label="utilization/10%",
        y_label="price",
    ))
    full = seller.admission.utilization(1, True, *window)
    print(
        f"\nfinal state: interface at {full:.0%} of {CAPACITY_KBPS // 1_000_000} Gbps, "
        f"{seller.admission.rejections} issuance(s) rejected — the AS cannot "
        "oversell the link, and the market rations the last gigabit by price."
    )


if __name__ == "__main__":
    main()
