"""Path-wide admission under telemetry: atomic screen/commit/rollback cycles.

A path-wide grant multiplies the admission hot path by the hop count:
every cycle admits (and later releases) the window on *both* interface
directions of every hop, through each hop's own
:class:`~repro.admission.AdmissionController`.  This bench builds a 2-hop
:class:`~repro.pathadm.PathAdmission` coordinator over calendars preloaded
with 5,000 reservations per interface direction at the default shard width
and runs full screen → commit → rollback cycles, the constant-state
version of the two-phase protocol (rollback re-subtracts exactly what
screen added, so the calendars never grow and every sample sees the same
load), with the path's instruments live and null in turn.

Bar: live instruments cost <= 5 % per cycle over null ones.  A cycles/s
bar (>= 6,000) is not gated: the slow periods of a shared 2-core box alone
take the rate below it.

Run:  PYTHONPATH=src python benchmarks/bench_path_admission.py
(``tools/perf_guard.py`` gates the telemetry overhead.)
"""

from __future__ import annotations

import random

try:
    from benchmarks.conftest import instrument_arms, measure_ab
except ImportError:  # executed as a script from the benchmarks/ directory
    from conftest import instrument_arms, measure_ab

from repro.admission import ISSUED, AdmissionController
from repro.pathadm import PathAdmission, PathHop
from repro.telemetry import MetricsRegistry, set_registry

HORIZON = 1_000_000.0  # seconds of calendar time the preload spreads over
CAPACITY_KBPS = 100_000_000  # 100 Gbps per interface direction
PATH_KBPS = 4_000
HOPS = 2
PRELOAD = 5_000  # background reservations per interface direction
SAMPLES = 2_000


def _hop_controller(seed: int) -> AdmissionController:
    """One AS's controller with both crossed directions preloaded, one
    ``commit`` per background reservation."""
    controller = AdmissionController(CAPACITY_KBPS)
    rng = random.Random(seed)
    for interface, is_ingress in ((1, True), (2, False)):
        calendar = controller.calendar(interface, is_ingress, ISSUED)
        for _ in range(PRELOAD):
            start = rng.uniform(0, HORIZON)
            calendar.commit(rng.randrange(100, 4000), start, start + rng.uniform(60, 7200))
    return controller


def build_path() -> PathAdmission:
    return PathAdmission(
        [
            PathHop(
                name=f"as{index}",
                controller=_hop_controller(seed=17 + index),
                ingress_interface=1,
                egress_interface=2,
            )
            for index in range(HOPS)
        ]
    )


def _cycle(path: PathAdmission, seed: int = 11):
    """Closure running one full screen -> commit -> rollback cycle.

    Windows rotate through a precomputed spread so successive samples hit
    different calendar regions (different shards, different boundary
    neighbourhoods) instead of hammering one hot point.
    """
    rng = random.Random(seed)
    windows = []
    for _ in range(1024):
        start = rng.uniform(0, HORIZON - 7200)
        windows.append((start, start + rng.uniform(60, 7200)))
    state = {"index": 0}

    def run():
        index = state["index"]
        state["index"] = (index + 1) % len(windows)
        ticket = path.screen(PATH_KBPS, *windows[index], tag="bench")
        if not ticket.admitted:
            raise AssertionError(ticket.reason)
        path.commit(ticket)
        path.rollback(ticket)

    return run


def path_admission_ab() -> dict:
    """Live-vs-null instrument path-cycle overhead, paired in one process.

    Call under a live registry.  ONE path runs interleaved cycles with the
    instruments of the coordinator and every hop controller swapped per
    arm (:func:`~benchmarks.conftest.instrument_arms`), so both arms share
    calendars, caches and memory layout and run the same code; only what
    the instruments do differs.  Interleaving keeps multi-second
    CPU-throttle windows hitting both arms equally.
    """
    path = build_path()
    cycle = _cycle(path)
    cycle()  # caches each hop controller's children
    observed, silent = instrument_arms(path, *(hop.controller for hop in path.hops))

    def arm(install):
        def run():
            install()
            cycle()

        return run

    return measure_ab(arm(observed), arm(silent), samples=SAMPLES, warmup=20)


if __name__ == "__main__":
    set_registry(MetricsRegistry())
    print(path_admission_ab())
