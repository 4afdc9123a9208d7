"""The paper's Table 3 / 4 timings and the microbenchmarks of ours."""

import pytest

from repro.crypto.prf import PrfFactory
from repro.hummingbird.source import HummingbirdSource
from repro.perfmodel import measure
from repro.perfmodel import papertimings as paper
from repro.perfmodel.measure import (
    ROUNDS,
    WARMUP_CALLS,
    WARMUP_ITEMS,
    alternating,
    build_fixture,
    measure_router,
    measure_source,
    time_op,
    time_op_over,
)
from repro.scion.packet import encode_packet
from repro.scion.paths import as_crossings
from repro.scion.router import Action


class TestPaperTimings:
    def test_table3_totals(self):
        assert paper.SCION_FORWARD_NS == 123
        assert paper.HUMMINGBIRD_EXTRA_NS == 185
        assert paper.HUMMINGBIRD_FORWARD_NS == 308

    def test_table4_totals(self):
        # 107 + 201 + 171 + 15 = 494 (500 B), +25 -> 519 (1500 B)
        assert paper.hummingbird_generation_ns(4, 500) == pytest.approx(494)
        assert paper.hummingbird_generation_ns(4, 1500) == pytest.approx(519)
        assert paper.scion_generation_ns(4, 500) == pytest.approx(293)

    def test_table3_step_names_are_unique(self):
        # the scoreboard looks our timed steps up by these names
        names = [name for name, _ in paper.ROUTER_STEPS_SCION + paper.ROUTER_STEPS_HUMMINGBIRD_EXTRA]
        assert len(names) == len(set(names)) == 7 + 9

    def test_payload_cost_passes_through_both_published_points(self):
        assert paper.source_payload_ns(500) == pytest.approx(paper.SOURCE_PAYLOAD_500_NS)
        assert paper.source_payload_ns(1500) == pytest.approx(paper.SOURCE_PAYLOAD_1500_NS)

    def test_flyover_macs_are_hummingbirds_only_extra_per_hop(self):
        for hops in (1, 2, 4, 8, 16):
            extra = paper.hummingbird_generation_ns(hops, 500) - paper.scion_generation_ns(hops, 500)
            assert extra == pytest.approx(paper.SOURCE_FLYOVER_MAC_PER_HOP_NS * hops)


def _wire_len(source) -> int:
    return len(encode_packet(source.build_packet(bytes(500))))


class TestWireBytes:
    """On the packets the microbenchmarks time: a flyover hop field is 8 B
    longer than a SCION one, and Hummingbird's meta header 8 B longer."""

    def test_hummingbird_overhead_is_8_bytes_per_reserved_hop(self):
        for hops in (2, 4, 8):
            fixture = build_fixture(hops, prf_backend="blake2")
            hb, scion = _wire_len(fixture.hb_source), _wire_len(fixture.scion_source)
            assert hb - scion == 8 * hops + 8  # + meta-header extension

    def test_partial_flyovers(self):
        fixture = build_fixture(4, prf_backend="blake2")
        full = fixture.hb_source
        partial = HummingbirdSource(
            full.src, full.dst, full.path, fixture.reservations[:2], fixture.clock,
            PrfFactory("blake2"),
        )
        assert _wire_len(full) - _wire_len(partial) == 2 * 8


class TestFixture:
    def test_every_crossing_carries_a_flyover(self):
        fixture = build_fixture(4, prf_backend="blake2")
        crossings = as_crossings(fixture.hb_source.path)
        assert len(fixture.reservations) == len(fixture.hb_source.placements) == len(crossings) == 4

    def test_the_timed_packets_take_their_lanes(self):
        """The router times the flyover pipeline, not a drop: a Hummingbird
        packet is forwarded on its reservation, a SCION one best effort."""
        fixture = build_fixture(4, prf_backend="blake2")
        hb = fixture.hb_router.process(fixture.hb_source.build_packet(bytes(500)), 0)
        scion = fixture.scion_router.process(fixture.scion_source.build_packet(bytes(500)), 0)
        assert hb.action is Action.FORWARD_PRIORITY
        assert scion.action is Action.FORWARD


class TestTiming:
    def test_time_op_warms_up_before_its_clock(self):
        calls = []
        assert time_op(lambda: calls.append(None), iterations=7) >= 0
        assert len(calls) == WARMUP_CALLS + 7

    def test_time_op_over_calls_each_item_once(self):
        seen = []
        time_op_over(seen.append, list(range(WARMUP_ITEMS + 5)))
        assert seen == list(range(WARMUP_ITEMS + 5))

    def test_time_op_over_needs_items_past_warmup(self):
        with pytest.raises(ValueError):
            time_op_over(lambda item: None, list(range(WARMUP_ITEMS)))


def test_alternating_reverses_the_order_every_other_round():
    tick = iter(range(2 * ROUNDS)).__next__  # a reading is its call's place in order
    assert alternating(tick, tick) == [[0, 3, 4, 7, 8], [1, 2, 5, 6, 9]]


def test_alternating_reverses_three_measures_too():
    tick = iter(range(3 * ROUNDS)).__next__
    assert alternating(tick, tick, tick) == [
        [0, 5, 6, 11, 12], [1, 4, 7, 10, 13], [2, 3, 8, 9, 14]
    ]


class TestMeasurements:
    """No comparison here is between two single readings taken apart in
    time: each side is a sum over ``ROUNDS`` runs that take the sides in turn."""

    def test_router_measurement_structure(self, monkeypatch):
        # each run times its Hummingbird hop, then its SCION hop
        monkeypatch.setattr(measure, "ROUTER_PACKETS", 200)
        runs = [measure_router() for _ in range(ROUNDS)]
        assert set(runs[0].steps) >= {
            "Recompute SCION hop field MAC",
            "Compute authentication key (A_i)",
            "Check for overuse",
        }
        assert sum(run.hummingbird_process_ns for run in runs) > sum(
            run.scion_process_ns for run in runs
        )
        assert sum(run.hummingbird_overhead_ns for run in runs) > 0

    def test_router_steps_are_disjoint_parts_of_the_hop(self, monkeypatch):
        """Timed as the router runs them (held K_i / SV_i PRFs, A_i keyed per
        packet), the steps cannot add up to more than the hop they are part of."""
        monkeypatch.setattr(measure, "ROUTER_PACKETS", 300)
        runs = [measure_router() for _ in range(ROUNDS)]
        hop = sum(run.hummingbird_process_ns for run in runs)
        overhead = sum(run.hummingbird_overhead_ns for run in runs)
        steps = sum(sum(run.steps.values()) for run in runs)
        hummingbird_only = sum(
            run.steps[name]
            for run in runs
            for name, _ in paper.ROUTER_STEPS_HUMMINGBIRD_EXTRA
            if name in run.steps
        )
        assert steps <= hop
        assert hummingbird_only <= overhead

    def test_source_measurement_scales_with_hops(self):
        def generation_ns(hops):
            return measure_source(hops, iterations=150).hummingbird_generation_ns

        fast, slow = alternating(lambda: generation_ns(2), lambda: generation_ns(6))
        assert sum(slow) > sum(fast)

    def test_hummingbird_generation_costs_more_than_scion(self):
        runs = [measure_source(hops=4, iterations=150) for _ in range(ROUNDS)]
        hummingbird = sum(run.hummingbird_generation_ns for run in runs)
        scion = sum(run.scion_generation_ns for run in runs)
        assert hummingbird > scion


def test_every_router_step_is_a_table3_row(monkeypatch):
    """The scoreboard shows a Table 3 row as "not timed alone" when no step
    of ours carries its name: a renamed step would vanish silently."""
    monkeypatch.setattr(measure, "time_op", lambda fn, iterations=2000: 1.0)
    monkeypatch.setattr(measure, "ROUTER_PACKETS", WARMUP_ITEMS + 5)
    run = measure.measure_router()
    names = {name for name, _ in paper.ROUTER_STEPS_SCION + paper.ROUTER_STEPS_HUMMINGBIRD_EXTRA}
    assert len(run.steps) == 7 and set(run.steps) <= names


def test_each_table4_stage_timing_runs_only_its_own_stage(monkeypatch):
    """Table 4's stages are disjoint, so their sum is comparable to the whole
    generation: "Add payload" attaches the payload to a path assembled
    beforehand, and no hop field is assembled while it is timed."""
    from repro.hummingbird.source import HummingbirdSource
    from repro.perfmodel import measure

    stages = ("_begin_headers", "_compute_flyover_macs", "_assemble_hopfields", "_attach_payload")
    calls = dict.fromkeys(stages, 0)
    for name in stages:
        def counting(self, *args, name=name, original=getattr(HummingbirdSource, name)):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(HummingbirdSource, name, counting)
    timed = []  # per time_op call: the stages it ran
    time_op = measure.time_op

    def recording(fn, iterations=2000):
        before = dict(calls)
        time_op(fn, iterations)
        timed.append([name for name in stages if calls[name] > before[name]])
        return 1.0

    monkeypatch.setattr(measure, "time_op", recording)
    measure.measure_source(hops=2, iterations=10)
    # every alternating round reads the whole Hummingbird generation, the
    # SCION one and each stage alone, so a slow round slows all six alike
    readings = sorted([list(stages), [], *([name] for name in stages)])
    assert len(timed) == len(readings) * ROUNDS
    for round_start in range(0, len(timed), len(readings)):
        assert sorted(timed[round_start : round_start + len(readings)]) == readings


def test_table4_share_pairs_each_rounds_stages_with_its_own_generation(monkeypatch):
    """A box that changes speed between rounds (here: round 2 slow for one
    stage, rounds 3-4 slow for everything) can make the per-stage medians sum
    past the generation's median; each round's stages against that round's
    generation cannot."""
    from repro.perfmodel import measure

    generation = [100, 100, 100, 200, 200]
    stages = [[85, 85, 10, 170, 170], [5, 5, 90, 10, 10], [5, 5, 5, 10, 10], [5, 5, 5, 5, 5]]
    monkeypatch.setattr(measure, "alternating", lambda *measures: [generation, [30] * 5, *stages])
    run = measure.measure_source(hops=2, iterations=10)
    assert sum(run.stages.values()) == 105 > run.hummingbird_generation_ns == 100
    assert run.staged_share == 1.0  # rounds: 1.0, 1.0, 1.1, 0.975, 0.975
