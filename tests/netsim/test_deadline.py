"""The deadline-transfer netsim experiment and its differential invariants.

``deadline_experiment`` itself asserts the per-transfer invariants
inline (deadline hit iff the oracle says feasible, >= 90% of oracle
bytes, on-chain spend == planned spend == oracle cost when feasible);
these tests drive it at small scale and check the aggregate view.
"""

from repro.netsim import deadline_experiment


def test_deadline_experiment_aggregates():
    result = deadline_experiment()
    assert len(result.records) == 3
    assert sum(record.bytes_requested for record in result.records) > 0
    assert any(record.deadline_hit for record in result.records)
    moved = sum(record.bytes_moved for record in result.records)
    assert moved >= 0.9 * sum(record.oracle_bytes for record in result.records)
    for record in result.records:
        assert record.bytes_moved <= record.bytes_requested
        assert record.deadline_hit == record.oracle_feasible
        if record.bytes_moved:
            assert record.reservations > 0 and record.legs > 0
