"""Ledger substrate: objects, gas, atomic execution, committee latencies."""

import random

import pytest

from repro.contracts.coin import CoinContract, coin_balance
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.committee import NUM_VALIDATORS, QUORUM, Committee
from repro.ledger.executor import LedgerExecutor
from repro.ledger.gas import GasMeter, GasSummary, computation_bucket
from repro.ledger.objects import LedgerObject, Ownership, canonical_size
from repro.ledger.runtime import Contract, ContractAbort
from repro.ledger.transactions import Command, Result, Transaction, resolve_args


class TestCanonicalSize:
    def test_scalars(self):
        assert canonical_size(None) == 1
        assert canonical_size(True) == 1
        assert canonical_size(7) == 8
        assert canonical_size(1.5) == 8
        assert canonical_size("ab") == 3
        assert canonical_size(b"abc") == 4

    def test_containers(self):
        assert canonical_size([1, 2]) == 1 + 16
        assert canonical_size({"a": 1}) == 1 + 2 + 8

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            canonical_size(object())

    def test_object_size_includes_overhead(self):
        obj = LedgerObject("x" * 64, "t::T", Ownership.OWNED, "owner", {"a": 1})
        assert obj.serialized_size() == 105 + canonical_size({"a": 1})


class TestGas:
    def test_bucket_rounding(self):
        assert computation_bucket(0) == 1000
        assert computation_bucket(1000) == 1000
        assert computation_bucket(1001) == 2000
        assert computation_bucket(2000) == 2000
        assert computation_bucket(2001) == 4000
        assert computation_bucket(3999) == 4000

    def test_summary_arithmetic(self):
        summary = GasSummary(computation_units=1000, storage_bytes=1000, rebate_bytes=500)
        assert summary.computation_cost == pytest.approx(1000 * 7.5e-7)
        assert summary.storage_cost == pytest.approx(1000 * 7.6e-6)
        assert summary.storage_rebate == pytest.approx(500 * 7.6e-6 * 0.99)
        assert summary.total_sui == pytest.approx(
            summary.computation_cost + summary.storage_cost - summary.storage_rebate
        )

    def test_delete_heavy_transaction_nets_negative(self):
        meter = GasMeter()
        meter.charge_call()
        meter.charge_delete(5000)
        assert meter.summary().total_sui < 0

    def test_mutation_charges_new_and_rebates_old(self):
        meter = GasMeter()
        meter.charge_mutate(old_size=300, new_size=400)
        summary = meter.summary()
        assert summary.storage_bytes == 400
        assert summary.rebate_bytes == 300


class _Counter(Contract):
    name = "counter"

    def create(self, ctx):
        obj = ctx.create_object("counter::C", {"value": 0})
        return {"id": obj.object_id}

    def increment(self, ctx, target: str):
        obj = ctx.take_owned(target, "counter::C")
        obj.payload["value"] += 1
        ctx.mutate(obj)
        ctx.emit("Incremented", {"value": obj.payload["value"]})
        return {"value": obj.payload["value"]}

    def explode(self, ctx, target: str):
        obj = ctx.take_owned(target, "counter::C")
        obj.payload["value"] += 100
        ctx.mutate(obj)
        raise ContractAbort("boom")


@pytest.fixture
def ledger():
    chain = Ledger()
    chain.register_contract(_Counter())
    chain.register_contract(CoinContract())
    return chain


def sender():
    return Account.generate(random.Random(0), "t").address


class TestAtomicity:
    def test_commit_on_success(self, ledger):
        addr = sender()
        effects = ledger.execute(
            Transaction(addr, [Command("counter", "create", {})])
        )
        assert effects.ok
        counter_id = effects.returns[0]["id"]
        assert ledger.get_object(counter_id).payload["value"] == 0

    def test_rollback_on_abort(self, ledger):
        addr = sender()
        created = ledger.execute(Transaction(addr, [Command("counter", "create", {})]))
        counter_id = created.returns[0]["id"]
        effects = ledger.execute(
            Transaction(
                addr,
                [
                    Command("counter", "increment", {"target": counter_id}),
                    Command("counter", "explode", {"target": counter_id}),
                ],
            )
        )
        assert not effects.ok
        assert "boom" in effects.error
        # The increment in the same transaction was rolled back too.
        assert ledger.get_object(counter_id).payload["value"] == 0

    def test_result_chaining(self, ledger):
        addr = sender()
        effects = ledger.execute(
            Transaction(
                addr,
                [
                    Command("counter", "create", {}),
                    Command("counter", "increment", {"target": Result(0, "id")}),
                ],
            )
        )
        assert effects.ok
        assert effects.returns[1]["value"] == 1

    def test_ownership_enforced(self, ledger):
        owner = sender()
        created = ledger.execute(Transaction(owner, [Command("counter", "create", {})]))
        counter_id = created.returns[0]["id"]
        thief = Account.generate(random.Random(9), "thief").address
        effects = ledger.execute(
            Transaction(thief, [Command("counter", "increment", {"target": counter_id})])
        )
        assert not effects.ok
        assert "not owned by" in effects.error

    def test_events_only_on_success(self, ledger):
        addr = sender()
        created = ledger.execute(Transaction(addr, [Command("counter", "create", {})]))
        counter_id = created.returns[0]["id"]
        before = len(ledger.events)
        ledger.execute(Transaction(addr, [Command("counter", "explode", {"target": counter_id})]))
        assert len(ledger.events) == before
        ledger.execute(Transaction(addr, [Command("counter", "increment", {"target": counter_id})]))
        assert len(ledger.events) == before + 1

    def test_unknown_contract_aborts(self, ledger):
        effects = ledger.execute(Transaction(sender(), [Command("nope", "f", {})]))
        assert not effects.ok

    def test_private_function_rejected(self, ledger):
        effects = ledger.execute(Transaction(sender(), [Command("counter", "_secret", {})]))
        assert not effects.ok

    def test_version_bumps_on_mutation(self, ledger):
        addr = sender()
        created = ledger.execute(Transaction(addr, [Command("counter", "create", {})]))
        counter_id = created.returns[0]["id"]
        v1 = ledger.get_object(counter_id).version
        ledger.execute(Transaction(addr, [Command("counter", "increment", {"target": counter_id})]))
        assert ledger.get_object(counter_id).version == v1 + 1


class TestCoins:
    def test_mint_merge(self, ledger):
        addr = sender()
        coin, piece = (
            ledger.execute(
                Transaction(addr, [Command("coin", "mint", {"amount": amount})])
            ).returns[0]["coin"]
            for amount in (sui_to_mist(1) - 1000, 1000)
        )
        assert coin_balance(ledger, addr) == sui_to_mist(1)
        merged = ledger.execute(
            Transaction(addr, [Command("coin", "merge", {"coin": coin, "other": piece})])
        )
        assert merged.ok
        assert coin_balance(ledger, addr) == sui_to_mist(1)


class TestResolveArgs:
    def test_nested_resolution(self):
        returns = [{"id": "abc"}]
        args = {"plain": 1, "nested": {"deep": Result(0, "id")}, "many": [Result(0, "id")]}
        resolved = resolve_args(args, returns)
        assert resolved["nested"]["deep"] == "abc"
        assert resolved["many"] == ["abc"]

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            resolve_args({"x": Result(3, "id")}, [{}])

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            resolve_args({"x": Result(0, "nope")}, [{"id": 1}])


class TestCommittee:
    def test_consensus_slower_than_fast_path(self):
        committee = Committee(random.Random(1))
        fast = [committee.fast_path_latency() for _ in range(200)]
        consensus = [committee.consensus_latency() for _ in range(200)]
        assert sum(fast) / len(fast) < sum(consensus) / len(consensus)

    def test_fast_path_subsecond_median(self):
        committee = Committee(random.Random(2))
        fast = sorted(committee.fast_path_latency() for _ in range(200))
        assert fast[100] < 1.0

    def test_quorum_is_two_thirds(self):
        """The committee waits for the 67th fastest of its 100 validators."""
        assert (NUM_VALIDATORS, QUORUM) == (100, 67)
        committee = Committee(random.Random(0))
        assert len(committee.validators) == NUM_VALIDATORS
        rtts = sorted(Committee(random.Random(0))._sample_rtts())
        assert committee._quorum_rtt() == rtts[QUORUM - 1]

    def test_two_quorums_always_share_an_honest_validator(self):
        """f = floor((n - 1) / 3) validators may be Byzantine: two quorums meet
        in f + 1 of them, and the honest ones alone still make a quorum."""
        n, f = NUM_VALIDATORS, (NUM_VALIDATORS - 1) // 3
        assert 2 * QUORUM - n >= f + 1
        assert QUORUM <= n - f


class TestExecutor:
    def test_fast_path_classification(self, ledger):
        executor = LedgerExecutor(ledger, Committee(random.Random(3)))
        addr = sender()
        submitted = executor.submit(
            Transaction(addr, [Command("coin", "mint", {"amount": 100})])
        )
        assert submitted.used_fast_path  # coins are owned objects
        assert submitted.latency > 0
