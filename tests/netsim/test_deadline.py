"""The deadline-transfer netsim experiment and its differential invariants.

``deadline_experiment`` itself asserts the per-transfer invariants
inline (deadline hit iff the oracle says feasible, >= 90% of oracle
bytes, on-chain spend == planned spend == oracle cost when feasible);
these tests drive it at small scale, check the aggregate view, and pin
the sharded backend.
"""

from repro.netsim import deadline_experiment


def test_deadline_experiment_aggregates():
    result = deadline_experiment(
        num_ases=2, transfer_count=4, horizon=1200, seed=5
    )
    assert len(result.records) == 4
    assert result.bytes_requested_total > 0
    assert any(record.deadline_hit for record in result.records)
    assert result.bytes_vs_oracle >= 0.9
    for record in result.records:
        assert record.bytes_moved <= record.bytes_requested
        assert record.deadline_hit == record.oracle_feasible
        assert record.spend_mist <= (
            record.budget_mist
            if record.budget_mist is not None
            else record.spend_mist
        )
        if record.bytes_moved:
            assert record.reservations > 0 and record.legs > 0


def test_deadline_experiment_runs_on_sharded_backend():
    result = deadline_experiment(
        num_ases=2,
        transfer_count=3,
        horizon=1200,
        seed=5,
        shard_seconds=600.0,
    )
    assert len(result.records) == 3
    assert result.bytes_vs_oracle >= 0.9
