"""The data plane's work as exact counts: Python frames and PRF calls per hop.

Timings of the per-packet path move with the machine (Table 3's hop ratio
has read 3.07-3.66 on one box); the steps the path takes do not.
``tools/frame_count.py`` counts every Python frame whose code lives under
``src/repro`` that one packet enters on
:func:`~repro.perfmodel.measure.build_fixture`'s warm routers and source,
and per injected packet of a small simulation over the same path, so every
supported CPython reads the same numbers.

Frames are ceilings, lowered by every change that cuts one.  The PRF work
of a reserved hop is exact, Table 3's crypto steps: three computes (the
hop-field MAC, :math:`A_i` and the flyover MAC) and one keying (:math:`A_i`
expanded per packet; :math:`K_i` and :math:`SV_i` are held).  A router that
skips a MAC or keeps a reservation's key fails here, at either backend.
"""

import os
import pathlib
import sys
from collections import Counter

import pytest

import repro

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "tools"))

from frame_count import count_frames  # noqa: E402

PRF_FILE = os.path.join(os.path.dirname(repro.__file__), "crypto", "prf.py")

RESERVED_HOP_FRAMES = 10  # 11 with the policer's two levels; 22 (BLAKE2: 21) before that
SCION_HOP_FRAMES = 4  # 8 before the router read the position table itself; 11
PLAIN_HOP_FRAMES = 4  # a flood's hop on the Hummingbird router; 10 through the base router
SOURCE_BUILD_FRAMES = 18  # 23; four reserved hops
# A reserved flow beside a best-effort flood, every frame of the simulation
# over the packets injected: 58.4 before packets shared their plain hop
# fields and the event loop stopped calling the clock, 28.86 while a flow
# observed each latency into a histogram as well as its list (28.44 since).
FRAMES_PER_INJECTED_PACKET = 28.5


def prf_work(frames: Counter) -> tuple[int, int]:
    """(PRF computes, PRF keyings) among ``frames``, whichever backend."""
    return frames[PRF_FILE, "compute"], frames[PRF_FILE, "__init__"]


@pytest.fixture(scope="module", params=["aes", "blake2"])
def counts(request):
    return count_frames(request.param)


def test_a_reserved_hop_runs_table_3s_crypto_steps_exactly(counts):
    assert prf_work(counts.reserved_hop) == (3, 1)


def test_a_reserved_hop_stays_under_its_frame_ceiling(counts):
    assert sum(counts.reserved_hop.values()) <= RESERVED_HOP_FRAMES, counts.reserved_hop


def test_a_scion_hop_stays_under_its_frame_ceiling(counts):
    assert prf_work(counts.scion_hop) == (1, 0)
    assert sum(counts.scion_hop.values()) <= SCION_HOP_FRAMES, counts.scion_hop


def test_a_flood_s_hop_on_the_hummingbird_router_stays_under_its_frame_ceiling(counts):
    assert prf_work(counts.plain_hop) == (1, 0)
    assert sum(counts.plain_hop.values()) <= PLAIN_HOP_FRAMES, counts.plain_hop


def test_a_simulated_packet_stays_under_its_frame_ceiling(counts):
    assert counts.injected > 200
    assert counts.frames_per_injected_packet <= FRAMES_PER_INJECTED_PACKET, (
        counts.simulation.most_common(12)
    )


def test_a_four_hop_build_stays_under_its_frame_ceiling(counts):
    assert prf_work(counts.source_build) == (4, 0)  # one tag per reserved hop, every A_K held
    assert sum(counts.source_build.values()) <= SOURCE_BUILD_FRAMES, counts.source_build


@pytest.mark.parametrize("backend", ["aes", "blake2"])
def test_the_counts_do_not_depend_on_the_run(backend):
    assert count_frames(backend) == count_frames(backend)
