"""The data plane's work as counts: Python frames per hop and per packet built.

    python tools/frame_count.py   # one line per PRF backend

One packet of ``ROUTER_PAYLOAD`` bytes through
:func:`repro.perfmodel.measure.build_fixture`'s warm routers and Hummingbird
source, and the packets of a small simulation over the fixture's path (a
reserved flow beside a best-effort flood, :data:`SIM_SECONDS` simulated
seconds); every Python frame whose code lives under ``src/repro`` is counted
by ``(file, function name)``.  Unlike a timing, the counts are the same on every
machine and run, and C calls and the standard library's frames are not steps
of ours, so every supported CPython reads the same numbers.
``tests/hummingbird/test_op_counts.py`` holds their ceilings and the exact
PRF work of a reserved hop; ``tools/paper_scoreboard.py`` sets the ratio of
the two hops beside Table 3's, and what a reserved hop adds over a plain one.

The counting hook lives here, not under ``src/repro``: an interpreter hook
is called by no Python frame, so ``tools/reach.py``'s profiler would list
it as uncalled.  It is a trace hook, handed back afterwards, rather than a
profile hook, because that profiler (``cProfile``) cannot be handed back.
"""

from __future__ import annotations

import os
import pathlib
import sys
from collections import Counter
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.crypto.prf import PrfFactory  # noqa: E402
from repro.netsim.scenarios import build_path_simulation  # noqa: E402
from repro.perfmodel.measure import ROUTER_PAYLOAD, WARMUP_ITEMS, build_fixture  # noqa: E402
from repro.scion.router import Action  # noqa: E402

SOURCE_ROOT = os.path.join(os.path.dirname(repro.__file__), "")
SIM_SECONDS = 0.1  # simulated: ~250 packets injected


def frames_entered(function, *args) -> tuple[object, Counter]:
    """``function(*args)``'s result, and every frame under ``src/repro`` the
    call entered, counted by ``(file, function name)``."""
    frames: Counter = Counter()

    def trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SOURCE_ROOT):
            frames[frame.f_code.co_filename, frame.f_code.co_name] += 1
        # no local trace function: nothing per line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = function(*args)
    finally:
        sys.settrace(previous)
    return result, frames


@dataclass
class FrameCounts:
    """The Python frames of one packet at each point of the data plane."""

    reserved_hop: Counter  # a flyover hop, forwarded with priority
    scion_hop: Counter  # the same hop, plain SCION on the baseline router
    plain_hop: Counter  # the same plain packet on the Hummingbird router: a flood's hop
    source_build: Counter  # one Hummingbird packet, every hop of the path reserved
    simulation: Counter  # every frame of a simulated reserved flow beside a flood
    injected: int  # the packets both flows sent meanwhile

    @property
    def frames_per_injected_packet(self) -> float:
        return sum(self.simulation.values()) / self.injected


def count_frames(prf_backend: str = "aes") -> FrameCounts:
    """The frames one packet takes through the fixture's first routers and
    its Hummingbird source, after ``WARMUP_ITEMS`` packets each."""
    fixture = build_fixture(prf_backend=prf_backend)
    body = bytes(ROUTER_PAYLOAD)
    for _ in range(WARMUP_ITEMS):
        fixture.hb_router.process(fixture.hb_source.build_packet(body), 0)
        fixture.scion_router.process(fixture.scion_source.build_packet(body), 0)
    reserved, plain = fixture.hb_source.build_packet(body), fixture.scion_source.build_packet(body)
    hb_decision, reserved_hop = frames_entered(fixture.hb_router.process, reserved, 0)
    scion_decision, scion_hop = frames_entered(fixture.scion_router.process, plain, 0)
    if (hb_decision.action, scion_decision.action) != (Action.FORWARD_PRIORITY, Action.FORWARD):
        raise RuntimeError(f"counted a packet not forwarded: {hb_decision}, {scion_decision}")
    flood_decision, plain_hop = frames_entered(
        fixture.hb_router.process, fixture.scion_source.build_packet(body), 0
    )
    if flood_decision.action is not Action.FORWARD:
        raise RuntimeError(f"counted a flood packet not forwarded: {flood_decision}")
    _, source_build = frames_entered(fixture.hb_source.build_packet, body)
    simulation_frames, injected = _simulation_frames(fixture, PrfFactory(prf_backend))
    return FrameCounts(
        reserved_hop, scion_hop, plain_hop, source_build, simulation_frames, injected
    )


def _simulation_frames(fixture, prf_factory: PrfFactory) -> tuple[Counter, int]:
    """The frames of :data:`SIM_SECONDS` of a 2 Mbps reserved flow beside a
    20 Mbps best-effort flood over the fixture's path, and the packets both
    flows injected meanwhile."""
    path = fixture.hb_source.path
    simulation = build_path_simulation(
        fixture.topology, path, start_time=fixture.clock.now(),
        prf_factory=prf_factory,
    )
    victim = simulation.send(1, 2e6, fixture.reservations, jitter=0.05)
    flood = simulation.send(2, 20e6, delay=0.001, jitter=0.02)
    _, frames = frames_entered(simulation.loop.run_until, simulation.now() + SIM_SECONDS)
    return frames, victim.sent_packets + flood.sent_packets


if __name__ == "__main__":
    for backend in ("aes", "blake2"):
        counts = count_frames(backend)
        print(backend, *(f"{name} {sum(getattr(counts, name).values())}"
                         for name in ("reserved_hop", "scion_hop", "plain_hop", "source_build")),
              f"per_injected_packet {counts.frames_per_injected_packet:.2f}")
