"""Admission at every shard width: one request at a time against loaded calendars.

An AS admits each asset it issues and each reservation it grants on its own,
so this bench loads one capacity calendar per shard width of a sweep from an
hour to a week with 50,000 reservations, one ``commit`` each, then runs
churn (mixed admit/release/expire steps, the per-link mutation path) against
it.

Bar: every width answers the same 1,000 peak probes alike after the load,
and the probes still ahead of the clock alike after the churn.  ``controller_admit_ab`` measures the
``AdmissionController.admit_issue`` hot path with live instruments and with
the null one in turn.

Run:  PYTHONPATH=src python benchmarks/bench_admission.py
(``tools/perf_guard.py`` gates the bar and the telemetry overhead.)
"""

from __future__ import annotations

import random

try:
    from benchmarks.conftest import instrument_arms, measure_ab
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import instrument_arms, measure_ab

from repro.admission import DEFAULT_SHARD_SECONDS, AdmissionController, CapacityCalendar

HORIZON = 1_000_000.0  # seconds of calendar time the A/B's admits spread over
CAPACITY_KBPS = 100_000_000  # 100 Gbps interface
DAY = 86_400.0
WIDTHS = (3_600.0, 21_600.0, DEFAULT_SHARD_SECONDS, 7 * DAY)
SHARD_HORIZON = 100 * DAY  # the reservations spread over a hundred days
TRACKED = 50_000
CHURN_STEPS = 3
CHURN_ADMITS = 200
CHURN_RELEASES = 100
AB_ADMITS = 5_000
BARS = {"widths_answering_alike": float(len(WIDTHS))}


def _window(rng: random.Random, earliest: float, span: float) -> tuple[int, float, float]:
    """One seeded ``(kbps, start, end)`` reservation starting within ``span``."""
    start = earliest + rng.uniform(0, span)
    return rng.randrange(100, 4000), start, start + rng.uniform(60, 7200)


def _churn(calendar: CapacityCalendar, handles: list) -> float:
    """Deterministic mixed workload: expire + admit + targeted release.

    Each step advances ``now`` by a fifth of a day (so expiry sweeps both
    inside shards and, at most widths, across whole-shard drops), admits
    fresh near-future reservations, and releases random live commitments —
    the per-link mutation mix a busy interface actually sees.  Returns
    the clock it ends at; expiry may forget anything before it.
    """
    rng = random.Random(41)
    now = 0.0
    for _ in range(CHURN_STEPS):
        now += DAY / 5
        calendar.expire(now)
        handles[:] = [handle for handle in handles if handle.end > now]
        for _ in range(CHURN_ADMITS):
            handles.append(calendar.admit(*_window(rng, now, 7200)))
        for _ in range(min(CHURN_RELEASES, len(handles))):
            position = rng.randrange(len(handles))
            handles[position], handles[-1] = handles[-1], handles[position]
            calendar.release(handles.pop().commitment_id)
    return now


def measure() -> dict[str, float]:
    """How many widths answer the probes as the first width does."""
    rng = random.Random(29)
    tracked = [_window(rng, 0, SHARD_HORIZON) for _ in range(TRACKED)]
    rng = random.Random(3)
    probes = [_window(rng, 0, SHARD_HORIZON)[1:] for _ in range(1000)]
    answers = []
    for width in WIDTHS:
        calendar = CapacityCalendar(CAPACITY_KBPS, shard_seconds=width)
        handles = [calendar.commit(*row) for row in tracked]  # one request at a time
        loaded = [calendar.peak_commitment(*probe) for probe in probes]
        now = _churn(calendar, handles)
        ahead = [calendar.peak_commitment(*probe) for probe in probes if probe[0] >= now]
        answers.append((loaded, ahead))
    return {"widths_answering_alike": float(answers.count(answers[0]))}


def controller_admit_ab() -> dict:
    """Live-vs-null instrument admit overhead, paired in one process.

    Call under a live registry.  Drives ONE controller whose instruments
    :func:`~benchmarks.conftest.instrument_arms` swaps per arm, so both
    arms share every byte of state — calendars, caches, memory layout —
    and run the same code; only what the instruments do differs.
    (Separate per-arm controllers re-introduce allocator and layout luck
    worth a few percent; separate bench *runs* are even worse on machines
    whose clock throttles in multi-second windows.)  Both arms advance the
    controller's one latency-sampling tick; alternating as they do, the
    1-in-16 timed admits fall in the live arm, so it also pays their clock
    reads.
    """
    controller = AdmissionController(capacity_kbps=CAPACITY_KBPS)
    rng = random.Random(13)
    windows = iter([_window(rng, 0, HORIZON) for _ in range(2 * AB_ADMITS + 101)])
    controller.admit_issue(1, True, *next(windows))  # caches the interface's children
    observed, silent = instrument_arms(controller)

    def arm(install):
        def run():
            install()
            controller.admit_issue(1, True, *next(windows))

        return run

    return measure_ab(arm(observed), arm(silent), samples=AB_ADMITS)


if __name__ == "__main__":
    print(measure())
