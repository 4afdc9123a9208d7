"""Reclamation-scan throughput: the control loop at 10^5 tracked commitments.

Two passes over the same tracked population, against a monolithic active
calendar:

* **watch** — every reservation shows up, so a scan is pure judgment:
  read each reservation's bytes off the policer, compute observed rates,
  accumulate show-up aggregates, decide "not a no-show" for each.  This is the steady-state
  cost an AS pays per scan tick.
* **reclaim** — nobody shows up, so every tracked reservation is judged
  a no-show, its calendar commitment shrunk in place and its policer
  rate capped (the worst-case actuation burst).

Bars: at 10^5 tracked commitments the watch pass processes >= 100k
reservations/s and the reclaim pass >= 20k reclamations/s.

Run:  PYTHONPATH=src python benchmarks/bench_reclaim.py
(``tools/perf_guard.py`` gates the bars.)
"""

import time

from repro.admission import ACTIVE, AdmissionController
from repro.reclaim import ReclamationEngine

CAPACITY_KBPS = 10**10
INGRESS = 1
BOOKED_KBPS = 1_000
WINDOW = (0.0, 1_000.0)
SCAN_AT = 100.0  # well past the grace period, inside every window

TRACKED = 100_000
BARS = {"watch_per_sec": 100_000.0, "reclaim_per_sec": 20_000.0}


class _Policer:
    """What the loop reads and caps of a policer, over a dict: cumulative
    priority bytes and rate caps per ``(ingress, ResID, ResStart)``."""

    def __init__(self, used: dict) -> None:
        self.used = used
        self.limits: dict = {}

    def usage_bytes(self, ingress_ifid: int, res_id: int, res_start: int) -> int:
        return self.used.get((ingress_ifid, res_id, res_start), 0)

    def set_limit(self, ingress_ifid: int, res_id: int, res_start: int, kbps: int) -> None:
        self.limits[ingress_ifid, res_id, res_start] = kbps

    def retain(self, reservations: set) -> None:
        self.used = {key: used for key, used in self.used.items() if key in reservations}
        self.limits = {key: kbps for key, kbps in self.limits.items() if key in reservations}


def _tracked_population(count: int, show_up: bool):
    """One controller + engine with ``count`` tracked reservations."""
    controller = AdmissionController(CAPACITY_KBPS)
    calendar = controller.calendar(INGRESS, True, ACTIVE)
    # Full booked rate for SCAN_AT seconds, or silence: cumulative bytes.
    per_res = int(BOOKED_KBPS * 125 * SCAN_AT) if show_up else 0
    usage = {(INGRESS, res_id, WINDOW[0]): per_res for res_id in range(count)}
    engine = ReclamationEngine(controller, _Policer(usage), grace_seconds=0.5)
    for res_id in range(count):
        piece = calendar.commit(BOOKED_KBPS, *WINDOW, tag=f"b{res_id}")
        engine.track(
            res_id,
            INGRESS,
            WINDOW[0],
            BOOKED_KBPS,
            *WINDOW,
            [(INGRESS, True, piece.commitment_id)],
        )
    return engine


def measure() -> dict[str, float]:
    """One watch scan and one reclaim-everything scan at ``TRACKED``."""
    watcher = _tracked_population(TRACKED, show_up=True)
    began = time.perf_counter()
    events = watcher.scan(SCAN_AT)
    watch_rate = TRACKED / (time.perf_counter() - began)
    assert events == [] and watcher.tracked_count == TRACKED

    reclaimer = _tracked_population(TRACKED, show_up=False)
    began = time.perf_counter()
    events = reclaimer.scan(SCAN_AT)
    reclaim_rate = TRACKED / (time.perf_counter() - began)
    assert len(events) == TRACKED  # every booking was a no-show
    return {"watch_per_sec": watch_rate, "reclaim_per_sec": reclaim_rate}


if __name__ == "__main__":
    print(measure())
