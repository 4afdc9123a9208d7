"""Deterministic traffic policing (§4.4, Algorithm 1).

Each AS polices its own reservations with a token-bucket variant that stores
a single 8-byte timestamp per reservation.  ``TSArray[ResID]`` holds the
virtual time up to which the reservation has already "paid for" traffic; a
packet of ``PktLen`` bytes on a reservation of bandwidth ``BW`` advances it
by ``PktLen/BW`` seconds.  A packet is forwarded with priority iff the
advanced timestamp stays within ``BurstTime`` of the current time — i.e. a
sender can never have more than ``BurstTime`` worth of its reserved rate in
flight as a burst.

ResIDs are unique per ingress interface, so the array is indexed directly by
the ResID from the packet header — no hashing, no per-flow state, exactly
one load, a handful of arithmetic ops, and one store per packet.  Timestamps
are int64 nanoseconds in one contiguous anonymous ``mmap`` buffer, mirroring
the paper's 8 B counters and its cache-size analysis: 100 Gbps / 100 kbps
minimum bandwidth gives ResIDmax = 3e6 and a 24 MB array.  Its pages are
zero and non-resident until a packet touches their ResIDs, so an idle
interface costs address space, not memory.
"""

from __future__ import annotations

import collections
import enum
import mmap

from repro.wire import bwcls

DEFAULT_BURST_TIME = 0.050  # 50 ms, per the router-buffer discussion in §4.4
NS = 1_000_000_000


class PolicingVerdict(enum.Enum):
    FWD_FLYOVER = "fwd_flyover"
    FWD_BEST_EFFORT = "fwd_best_effort"


# Read once per process, not per packet: on CPython 3.11 looking up an enum
# member costs about ten global reads.
_FLYOVER, _BEST_EFFORT = PolicingVerdict.FWD_FLYOVER, PolicingVerdict.FWD_BEST_EFFORT
# kbps of every 10-bit header class, indexed by the class.
_KBPS_OF_CLASS = tuple(bwcls.decode(bw_cls) for bw_cls in range(bwcls.MAX_CLASS + 1))


class TokenBucketArray:
    """Algorithm 1: one 8-byte virtual timestamp per ResID.

    A fresh bucket at 8 kbps admits 50 B (50 ms, the whole BurstTime) and
    not 100 B (100 ms):

    >>> array = TokenBucketArray(capacity=16)
    >>> array.monitor(res_id=3, bw_kbps=8, pkt_len=50, now=1000.0)
    <PolicingVerdict.FWD_FLYOVER: 'fwd_flyover'>
    >>> array.monitor(res_id=4, bw_kbps=8, pkt_len=100, now=1000.0)
    <PolicingVerdict.FWD_BEST_EFFORT: 'fwd_best_effort'>
    """

    __slots__ = ("burst_time_ns", "_timestamps", "_usage_bytes", "_limits")

    def __init__(self, capacity: int, burst_time: float = DEFAULT_BURST_TIME) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if burst_time <= 0:
            raise ValueError("BurstTime must be positive")
        self.burst_time_ns = int(burst_time * NS)
        self._timestamps = memoryview(mmap.mmap(-1, 8 * capacity)).cast("q")
        # Per-ResID bytes forwarded with priority: the usage feed the
        # reclamation loop (and telemetry exports) consume.  One extra
        # store per in-profile packet; out-of-profile traffic is
        # best-effort and not attributed to the reservation.  Sparse, so a
        # snapshot sorts the active ResIDs instead of scanning the capacity.
        self._usage_bytes: dict[int, int] = collections.defaultdict(int)
        # Per-ResID ``(kbps, until)`` rate overrides installed by the control
        # plane when a no-show's bandwidth is reclaimed: the header still
        # advertises the original class, but the bucket drains at the
        # reclaimed rate until that reservation ends.  Sparse — only a
        # reclaimed reservation's ResID pays the lookup.
        self._limits: dict[int, tuple[int, float]] = {}

    def monitor(self, res_id: int, bw_kbps: int, pkt_len: int, now: float) -> PolicingVerdict:
        """BandwidthMonitoring(ResID, BW, PktLen) — Algorithm 1 verbatim."""
        if not 0 <= res_id < len(self._timestamps):
            return _BEST_EFFORT
        if self._limits:
            limit = self._limits.get(res_id)
            if limit is not None:
                if now < limit[1]:
                    bw_kbps = min(bw_kbps, limit[0])
                else:  # its reservation is over: the ResID's next holder is not capped
                    del self._limits[res_id]
        if bw_kbps <= 0:
            return _BEST_EFFORT
        now_ns = int(now * NS)
        # PktLen / BW in nanoseconds: bytes * 8 bits / (kbps * 1000 bits/s).
        transmit_ns = pkt_len * 8 * 1_000_000 // bw_kbps
        timestamp = max(self._timestamps[res_id], now_ns) + transmit_ns
        if timestamp <= now_ns + self.burst_time_ns:
            self._timestamps[res_id] = timestamp
            self._usage_bytes[res_id] += pkt_len
            return _FLYOVER
        return _BEST_EFFORT

    def usage_bytes(self, res_id: int) -> int:
        """Bytes forwarded with priority on one reservation so far."""
        return self._usage_bytes.get(res_id, 0)

    def usage_snapshot(self) -> dict[int, int]:
        """Every ResID with non-zero priority traffic -> bytes forwarded."""
        return {res_id: used for res_id, used in sorted(self._usage_bytes.items()) if used}

    def set_limit(self, res_id: int, bw_kbps: int, until: float) -> None:
        """Cap one reservation's policed rate below its header class until
        ``until``, the end of that reservation.

        The reclamation loop's demotion hook: after a no-show's calendar
        bandwidth is reclaimed, the bucket drains at the reclaimed rate —
        a sender waking up late is forwarded best-effort beyond it.  A
        limit of 0 demotes every packet on the ResID.  The cap is the
        reservation's, not the ResID's: ResIDs are reused by later,
        non-overlapping windows (§4.4), and their holders are policed at
        their own rate.
        """
        if bw_kbps < 0:
            raise ValueError("limit must be >= 0")
        self._limits[int(res_id)] = (int(bw_kbps), float(until))


class PerInterfacePolicer:
    """Per-ingress-interface policing arrays for one AS, each with the
    :data:`DEFAULT_BURST_TIME` BurstTime.

    The AS controls ``ResIDmax`` through the minimum-bandwidth attribute of
    the assets it sells (§4.4): ``capacity`` should be sized as
    R * TotalBW / MinBW for First-Fit competitiveness R.
    """

    __slots__ = ("capacity", "_arrays")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._arrays: dict[int, TokenBucketArray] = {}

    def array_for(self, ingress_ifid: int) -> TokenBucketArray:
        array = self._arrays.get(ingress_ifid)
        if array is None:
            array = TokenBucketArray(self.capacity)
            self._arrays[ingress_ifid] = array
        return array

    def monitor(
        self, ingress_ifid: int, res_id: int, bw_cls: int, pkt_len: int, now: float
    ) -> PolicingVerdict:
        """Police one packet; bandwidth arrives as the 10-bit header class."""
        if not 0 <= bw_cls <= bwcls.MAX_CLASS:
            raise ValueError(f"bandwidth class {bw_cls} out of 10-bit range")
        array = self._arrays.get(ingress_ifid)
        if array is None:
            array = self.array_for(ingress_ifid)
        return array.monitor(res_id, _KBPS_OF_CLASS[bw_cls], pkt_len, now)

    def usage_bytes(self, ingress_ifid: int, res_id: int) -> int:
        """Priority bytes one reservation moved through one ingress."""
        array = self._arrays.get(ingress_ifid)
        return 0 if array is None else array.usage_bytes(res_id)

    def set_limit(self, ingress_ifid: int, res_id: int, bw_kbps: int, until: float) -> None:
        """Cap one reservation's policed rate until it ends (reclamation demotion)."""
        self.array_for(ingress_ifid).set_limit(res_id, bw_kbps, until)

    def usage_snapshot(self) -> dict[int, dict[int, int]]:
        """Per-ingress ``{res_id: priority bytes}`` for active ResIDs."""
        snapshots = {
            ingress: array.usage_snapshot()
            for ingress, array in sorted(self._arrays.items())
        }
        return {ingress: used for ingress, used in snapshots.items() if used}

    def record_gauges(self, isd_as: str = "") -> None:
        """Publish array residency + per-flow byte gauges to the registry.

        On-demand (end of a scenario, or periodic sampling) — never on the
        per-packet path.
        """
        from repro.telemetry import get_registry

        registry = get_registry()
        residency = registry.gauge(
            "policer_array_bytes",
            "Policing-array residency (the cache-size metric of §4.4).",
            ("isd_as", "ingress"),
        )
        flow_bytes = registry.gauge(
            "policer_flow_priority_bytes",
            "Bytes forwarded with priority per reservation.",
            ("isd_as", "ingress", "res_id"),
        )
        for ingress, array in sorted(self._arrays.items()):
            residency.labels(isd_as, ingress).set(array._timestamps.nbytes)
            for res_id, used in array.usage_snapshot().items():
                flow_bytes.labels(isd_as, ingress, res_id).set(used)
