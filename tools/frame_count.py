"""The data plane's work as counts: Python frames per hop and per packet built.

    python tools/frame_count.py   # one line per PRF backend

One packet of ``ROUTER_PAYLOAD`` bytes through
:func:`repro.perfmodel.measure.build_fixture`'s warm routers and Hummingbird
source; every Python frame whose code lives under ``src/repro`` is counted by
``(file, function name)``.  Unlike a timing, the counts are the same on every
machine and run, and C calls and the standard library's frames are not steps
of ours, so every supported CPython reads the same numbers.
``tests/hummingbird/test_op_counts.py`` holds their ceilings and the exact
PRF work of a reserved hop; ``tools/paper_scoreboard.py`` sets the ratio of
the two hops beside Table 3's.

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
from repro.perfmodel.measure import ROUTER_PAYLOAD, WARMUP_ITEMS, build_fixture  # noqa: E402
from repro.scion.router import Action  # noqa: E402

SOURCE_ROOT = os.path.join(os.path.dirname(repro.__file__), "")


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
    source_build: Counter  # one Hummingbird packet, every hop of the path reserved


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
    _, source_build = frames_entered(fixture.hb_source.build_packet, body)
    return FrameCounts(reserved_hop, scion_hop, source_build)


if __name__ == "__main__":
    for backend in ("aes", "blake2"):
        counts = count_frames(backend)
        print(backend, *(f"{name} {sum(getattr(counts, name).values())}"
                         for name in ("reserved_hop", "scion_hop", "source_build")))
