"""Path-wide contention on the deployed market: one on-chain path auction.

The two recorded configurations come from the session's ``experiment_runs``
memo (``conftest.py``), shared with ``test_experiment_equivalence.py``; one
more run, under telemetry, watches the settlement record the contract wrote
and the invariant check the run ends in.  Every leg of the experiment offers
the same supply, so every loser is refused at leg 0; a loser evicted from
legs it had won at a clamped mid-path leg is tested in
``tests/controlplane/test_path_wiring.py``.
"""

import pytest

import repro.controlplane
import repro.invariants
from repro.netsim import admitted, linear_path, path_contention_experiment, rejected
from repro.telemetry import ExperimentTelemetry

LIFECYCLE = (
    "path_bid.placed",
    "path_auction.settle",
    "path_bid.settled",
    "path.redeem",
    "reservation.delivered",
)


@pytest.fixture(scope="module", params=[(3, 8), (4, 6)], ids=["3-ases", "4-ases"])
def result(request, experiment_runs):
    num_ases, num_buyers = request.param
    return experiment_runs(path_contention_experiment, num_ases, num_buyers=num_buyers)


@pytest.fixture(scope="module")
def observed():
    """A telemetry run, with every settlement record and invariant check it
    made."""
    settled, checked = [], []
    settle, check = repro.controlplane.settle_path_auction, repro.invariants.check

    def recording_settle(deployment, handle):
        settled.append(settle(deployment, handle))
        return settled[-1]

    def recording_check(deployment, now):
        check(deployment, now)
        checked.append(deployment)

    telemetry = ExperimentTelemetry("path_contention_experiment")
    with pytest.MonkeyPatch.context() as patch, telemetry.activate():
        patch.setattr(repro.controlplane, "settle_path_auction", recording_settle)
        patch.setattr(repro.invariants, "check", recording_check)
        outcome = path_contention_experiment(*linear_path(3), num_buyers=6)
    (record,) = settled
    return outcome, record.submitted.effects.returns[0], checked, telemetry.to_dict()


class TestPathContentionExperiment:
    def test_some_paths_win_and_no_hop_oversells(self, result):
        assert admitted(result.buyers) and rejected(result.buyers)
        assert not result.oversold
        for peak, capacity in zip(result.hop_peaks_kbps, result.hop_capacities_kbps):
            assert 0 < peak <= capacity

    def test_winners_pay_and_losers_get_every_mist_back(self, result):
        assert result.path_auction_winners == len(admitted(result.buyers))
        for buyer in admitted(result.buyers):
            assert buyer.granted_kbps == buyer.requested_kbps
            assert buyer.buyer not in result.failed_hops
            assert 0 < buyer.paid_mist < result.escrows_mist[buyer.buyer]
        for buyer in rejected(result.buyers):
            assert buyer.granted_kbps == 0
            assert buyer.paid_mist == 0  # every MIST of the escrow back
            # every leg offers the same supply: the first one refuses
            assert (result.failed_hops[buyer.buyer], buyer.refusal) == (0, "supply exhausted")

    def test_escrow_is_conserved(self, result):
        assert result.escrow_conserved

    def test_a_loser_is_told_what_the_contract_reported(self, observed):
        outcome, settlement, _, _ = observed
        reported = [(loser["leg"] // 2, loser["reason"]) for loser in settlement["losers"]]
        assert sorted(reported) == sorted(
            (outcome.failed_hops[b.buyer], b.refusal) for b in rejected(outcome.buyers)
        )
        assert len(settlement["winners"]) == len(admitted(outcome.buyers))

    def test_a_winner_holds_a_piece_of_every_leg(self, observed):
        outcome, settlement, _, _ = observed
        num_legs = 2 * len(outcome.hop_names)
        assert settlement["winners"]
        for winner in settlement["winners"]:
            assert len(winner["assets"]) == num_legs

    def test_paid_plus_refunds_is_every_escrow_taken(self, observed):
        outcome, settlement, _, _ = observed
        paid = sum(winner["paid_mist"] for winner in settlement["winners"])
        refunds = sum(
            bid["refund_mist"] for bid in settlement["winners"] + settlement["losers"]
        )
        assert paid + refunds == sum(outcome.escrows_mist.values())

    def test_the_run_ends_in_the_invariant_check(self, observed):
        _, _, checked, _ = observed
        assert len(checked) == 1

    def test_telemetry_traces_one_path_from_bid_to_delivery(self, observed):
        outcome, _, _, snapshot = observed
        traces = {trace["name"]: trace for trace in snapshot["traces"]}
        names = []
        for span in traces["traced-path"]["spans"]:
            names.append(span["name"])
            names.extend(event["name"] for event in span.get("events", []))
        firsts = [names.index(name) for name in LIFECYCLE]
        assert firsts == sorted(firsts)
        assert outcome.oversold is False
