"""Scarcity-responsive pricing: interface utilization -> price multiplier.

Hummingbird delegates allocation fairness to market pricing; for the market
to ration a scarce interface, the posted price must *respond* to scarcity.
:class:`ScarcityPricer` implements a congestion-style curve: the multiplier
is 1 on an empty interface and grows super-linearly as utilization
approaches 1 (an M/M/1-delay-like ``u^k / (1 - u)`` shape, capped so a
nearly-full calendar quotes a large but finite price).

The AS feeds the multiplier into ``price_micromist_per_unit`` whenever it
lists an asset, so successive listings on a filling interface cost more —
the capacity-auction example plots the curve end to end.
"""

from __future__ import annotations


class Pricer:
    """Interface for utilization-responsive pricing."""

    def multiplier(self, utilization: float) -> float:
        raise NotImplementedError

    def price(self, base_micromist_per_unit: int, utilization: float) -> int:
        """Scarcity-adjusted unit price, rounded up, never below 1.

        Computed in exact integer arithmetic: the float multiplier's binary
        expansion is a ratio of two ints, so ``ceil(base * num / den)`` never
        round-trips the base through float — a base above 2^53 would silently
        lose its low bits there (10^17 + 1 used to quote 10^17 at multiplier
        1.0, undercharging every unit sold).
        """
        numerator, denominator = float(self.multiplier(utilization)).as_integer_ratio()
        return max(1, -(-int(base_micromist_per_unit) * numerator // denominator))


class FlatPricer(Pricer):
    """No scarcity response: the posted price is the base price."""

    def multiplier(self, utilization: float) -> float:
        return 1.0


class ScarcityPricer(Pricer):
    """``1 + ALPHA * u^EXPONENT / (1 - u)``, capped at ``MAX_MULTIPLIER``.

    * :attr:`ALPHA` scales how aggressively price reacts to load;
    * :attr:`EXPONENT` keeps the curve flat at low utilization (a half-empty
      link should not be expensive) while preserving the blow-up near 1;
    * :attr:`MAX_MULTIPLIER` bounds the quote on a (nearly) full calendar.

    ``multiplier(0) == 1`` exactly, so enabling the pricer changes nothing
    until an interface actually starts to fill.
    """

    ALPHA = 0.5
    EXPONENT = 2.0
    MAX_MULTIPLIER = 64.0

    def multiplier(self, utilization: float) -> float:
        u = min(max(float(utilization), 0.0), 1.0)
        if u >= 1.0:
            return self.MAX_MULTIPLIER
        raw = 1.0 + self.ALPHA * u**self.EXPONENT / (1.0 - u)
        return min(raw, self.MAX_MULTIPLIER)
