"""Machine-speed sampler: turns wall time into calibrated time.

The boxes this benchmark runs on change speed by 10-50% for half a second
to minutes at a time (shared cores, frequency steps).  CPU time inflates
with wall time, so no clock in the process is steady, and a run made in a
slow window would read as a regression of the program: uncalibrated, ten
runs of one commit spread by 15-25%.

While a run lasts, a sampler thread therefore wakes every few tens of
milliseconds and times a fixed kernel that has nothing to do with the
program — one modular exponentiation, then one bytecode loop: the two
instruction mixes the program's time is made of, which slow windows hit
differently (bytecode up to 1.5x, big-integer arithmetic up to 1.3x).  Any
stretch of the timeline can then be rescaled, gap between samples by gap,
to what it would have taken at the reference speed, with the samples
themselves cut out.  Control-plane time (modexp-bound) is rescaled by the
modexp readings, data-plane time by the bytecode readings.

The references are constants, not properties of the run, so a run that
falls entirely into a slow window is corrected too.  They are this
kernel's times on the reference box (2 cores, CPython 3.11) at full speed:
there, calibrated seconds are wall seconds.  The factor actually applied
is reported as ``driver.machine_slowdown``.

The process is pinned to the CPU it started on while sampling, so that the
sampler measures the core the program runs on; the interpreter's switch
interval is raised so that a sample is never preempted half way.  Each
kernel part is a stretch the other thread cannot interleave with: the
exponentiation is one C call under the GIL, the loop is far shorter than
the switch interval.
"""

from __future__ import annotations

import bisect
import os
import sys
import threading
import time

MODEXP, BYTECODE = 0, 1

# Changing the kernel or a reference re-scales every timing: re-measure the
# committed baseline in the same change.
_MODULUS = (1 << 2047) + 0x5DEECE66D
_EXPONENT = (1 << 254) + 0x2545F4914F6CDD1D
_LOOP = 15_000
REFERENCE_S = (0.0026, 0.0011)  # (modexp part, bytecode part) at full speed

SAMPLE_SLEEP_S = 0.02
SWITCH_INTERVAL_S = 0.02  # > one sample (~5-7 ms), so none is split


class Timeline:
    """An immutable set of samples; rescales durations that lie among them."""

    def __init__(self, samples: list) -> None:
        self._begin = [sample[0] for sample in samples]
        self._end = [sample[1] for sample in samples]
        self._cost = ([sample[2] for sample in samples], [sample[3] for sample in samples])

    def _gaps(self, begin: float, end: float):
        """The parts of ``[begin, end]`` outside every sample, as
        ``(length, gap)``; gap ``k`` is the stretch just before sample ``k``."""
        gap = bisect.bisect_right(self._end, begin)
        cursor = begin
        count = len(self._begin)
        while cursor < end:
            stop = min(self._begin[gap], end) if gap < count else end
            if stop > cursor:
                yield stop - cursor, gap
            if gap >= count:
                return
            cursor = max(cursor, self._end[gap])
            gap += 1

    def _slowdown(self, gap: int, kind: int) -> float:
        """Mean of the two samples that bound the gap, over the reference."""
        cost = self._cost[kind]
        low, high = max(gap - 1, 0), min(gap, len(cost) - 1)
        return (cost[low] + cost[high]) / 2 / REFERENCE_S[kind]

    def raw(self, begin: float, end: float) -> float:
        """Clock duration of ``[begin, end]`` with the samples cut out."""
        following = bisect.bisect_right(self._end, begin)
        if following == len(self._begin) or self._begin[following] >= end:
            return end - begin  # no sample inside: the common case for a span
        return sum(length for length, _ in self._gaps(begin, end))

    def calibrated(self, begin: float, end: float, kind: int) -> float:
        """Duration of ``[begin, end]`` at reference speed, samples cut out."""
        if not self._begin:
            return end - begin
        return sum(
            length / self._slowdown(gap, kind) for length, gap in self._gaps(begin, end)
        )


class Speedometer:
    """Runs the sampler thread between :meth:`start` and :meth:`stop`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._samples: list = []  # (begin, end, modexp seconds, bytecode seconds)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._restore = None

    def start(self) -> None:
        affinity = None
        if hasattr(os, "sched_setaffinity"):
            affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {_current_cpu(affinity)})
        self._restore = (affinity, sys.getswitchinterval())
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        affinity, switch_interval = self._restore
        sys.setswitchinterval(switch_interval)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _sample(self) -> None:
        clock, samples = self.clock, self._samples
        while not self._stop.wait(SAMPLE_SLEEP_S):
            begin = clock()
            value = pow(7, _EXPONENT, _MODULUS)
            middle = clock()
            for index in range(_LOOP):
                value = (value * 31 + index) & 0xFFFF
            end = clock()
            samples.append((begin, end, middle - begin, end - middle))

    def timeline(self) -> Timeline:
        """The samples so far (the sampler may keep running)."""
        return Timeline(list(self._samples))


def _current_cpu(affinity: set) -> int:
    """The CPU this process last ran on, else the lowest one it may use."""
    try:
        with open("/proc/self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(affinity)
    return cpu if cpu in affinity else min(affinity)
