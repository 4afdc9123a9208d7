"""Output checks: each returns the list of problems found (empty = correct).

One call checks one operation (a lifecycle, a batch of packets, a round
invariant); the workloads count a non-empty answer as one failed
operation.  Expected refusals — a lost bid, a tampered packet dropped, a
stale or over-rate packet demoted — are successes here; the same packet
forwarded with priority is the failure.
"""

from __future__ import annotations

from . import api


def reserved_actions(hops: int) -> list:
    return [api.FORWARD_PRIORITY] * (hops - 1) + [api.DELIVER]


def best_effort_actions(hops: int) -> list:
    return [api.FORWARD] * (hops - 1) + [api.DELIVER]


def purchase(outcome, hops: int) -> list[str]:
    problems = []
    if len(outcome.reservations) != hops:
        problems.append(f"{len(outcome.reservations)} reservations for {hops} hops")
    if outcome.price_mist != outcome.estimated_price_mist:
        problems.append(
            f"paid {outcome.price_mist} MIST, quoted {outcome.estimated_price_mist}"
        )
    return problems


def packet(kind: str, actions: list, expected: list) -> list[str]:
    if actions != expected:
        return [f"{kind} packet: {[a.value for a in actions]}"]
    return []


def counter(what: str, got: int, expected: int) -> list[str]:
    return [] if got == expected else [f"{what}: {got}, expected {expected}"]


def over_rate_burst(burst_actions: list, hops: int) -> list[str]:
    """A burst above the reserved rate must lose priority, never the packet."""
    problems = []
    demoted = 0
    for actions in burst_actions:
        if actions[-1] is not api.DELIVER or len(actions) != hops:
            problems.append(f"burst packet lost: {[a.value for a in actions]}")
        if actions != reserved_actions(hops):
            demoted += 1
    if demoted == 0:
        problems.append("over-rate burst was never demoted")
    return problems


def flood(victim_flow, flood_flow, link_stats: list) -> list[str]:
    """The paper's DoS result: the reserved flow survives, the flood does not."""
    problems = []
    if victim_flow.received_packets < 0.99 * victim_flow.sent_packets:
        problems.append(
            f"victim delivered {victim_flow.received_packets}/{victim_flow.sent_packets}"
        )
    priority_drops = sum(stats.dropped_priority for stats in link_stats)
    if priority_drops:
        problems.append(f"{priority_drops} priority packets dropped at a queue")
    if flood_flow.received_packets > 0.5 * flood_flow.sent_packets:
        problems.append(
            f"flood delivered {flood_flow.received_packets}/{flood_flow.sent_packets}"
        )
    return problems


def settlement(record, offered_kbps: int, reserve_micromist: int, bids: int) -> list[str]:
    problems = []
    if record.awarded_kbps > offered_kbps:
        problems.append(f"awarded {record.awarded_kbps} kbps of {offered_kbps} offered")
    if record.clearing_price_micromist < reserve_micromist:
        problems.append(
            f"cleared at {record.clearing_price_micromist}, reserve {reserve_micromist}"
        )
    if not 0 < len(record.winners) < bids:
        problems.append(f"{len(record.winners)} winners of {bids} bids")
    return problems


def bidder(outcome, clearing_price_micromist: int, balance_mist: int, funded_mist: int,
           spent_posted_mist: int, reservations: int) -> list[str]:
    """One bidder's lifecycle: a winner pays the uniform price and gets one
    reservation; a loser gets its whole escrow back and nothing else."""
    problems = []
    if outcome is None:
        return ["auction never settled for this bidder"]
    if outcome.clearing_price_micromist != clearing_price_micromist:
        problems.append("bidder saw a different clearing price")
    expected_balance = funded_mist - outcome.paid_mist - spent_posted_mist
    if balance_mist != expected_balance:
        problems.append(f"balance {balance_mist} MIST, expected {expected_balance}")
    if outcome.won and reservations != 1:
        problems.append(f"winner holds {reservations} reservations")
    if not outcome.won and (outcome.paid_mist or reservations):
        problems.append("loser paid or received a reservation")
    return problems


def transfer(outcome) -> list[str]:
    problems = []
    paid = sum(ret.get("price_mist", 0) for ret in outcome.submitted.effects.returns)
    if paid != outcome.plan.spend_mist:
        problems.append(f"chain charged {paid} MIST, plan said {outcome.plan.spend_mist}")
    if len(outcome.reservations) != outcome.plan.redeem_count:
        problems.append(
            f"{len(outcome.reservations)} reservations for "
            f"{outcome.plan.redeem_count} redeems"
        )
    if not outcome.plan.meets_request:
        problems.append("plan does not carry the requested bytes")
    return problems
