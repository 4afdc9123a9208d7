#!/usr/bin/env python3
"""Buy the valley, not the peak: price-reactive purchasing with flex.

PR 1 made posted prices respond to scarcity; this example shows the v2
host API *reacting* to those prices.  A crowd buys out one peak window at
the base price, every AS restocks the peak at its scarcity-adjusted quote,
and then two probe buyers request the same 10-minute reservation:

* the zero-flex probe must take the peak window and pays the premium;
* the probe with 30 minutes of start-time slack lets the
  ``PurchasePlanner`` slide its window into the post-peak valley and pays
  the base price for identical bandwidth.

Both probes' reservations are then exercised on the data plane against a
best-effort flood — a valley reservation protects its flow exactly like a
peak one, it is just cheaper.

Run:  python examples/flex_purchase.py
"""

from repro.analysis import line_plot, render_comparison
from repro.netsim.scenarios import flex_market_experiment


def main() -> None:
    result = flex_market_experiment(duration=1.0)

    peak_start, peak_end = result.peak_window
    print(
        f"peak window [{peak_start}, {peak_end}) sold out and restocked at "
        f"{result.peak_price_micromist} µMIST/unit "
        f"(base price {result.base_price_micromist})\n"
    )

    rows = []
    for buyer, flex, start in zip(result.buyers, result.flex_values, result.window_starts):
        rows.append(
            [
                buyer.buyer,
                f"{flex}s",
                f"+{start - peak_start}s",
                "peak" if start < peak_end else "valley",
                f"{buyer.paid_mist}",
                f"{buyer.metrics['goodput_mbps']:.2f}",
            ]
        )
    print(
        render_comparison(
            ["buyer", "flex", "shift", "window", "paid (MIST)", "goodput (Mbps)"],
            rows,
            title="Same reservation, different flexibility",
            note="goodput measured through a 2x-overload best-effort flood; "
            "the valley buyer pays the base price for identical protection.",
        )
    )

    curve = {
        time - peak_start: price
        for time, price in zip(result.curve_times, result.curve_prices)
        if price != float("inf")
    }
    print()
    print(
        line_plot(
            {"cheapest quote": sorted(curve.items())},
            title="probe-sized quote [MIST] vs window start [s after peak opens]",
            x_label="start offset",
            y_label="MIST",
        )
    )
    saved = result.buyers[0].paid_mist - result.buyers[-1].paid_mist
    print(
        f"\nflexibility saved {saved} MIST "
        f"({saved / result.buyers[0].paid_mist:.0%} of the peak price) — "
        "hosts that can wait smooth the demand curve instead of paying it."
    )


if __name__ == "__main__":
    main()
