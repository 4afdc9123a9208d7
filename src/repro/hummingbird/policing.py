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

import enum
import mmap

from repro.wire import bwcls

BURST_TIME = 0.050  # 50 ms, per the router-buffer discussion in §4.4
NS = 1_000_000_000
_BURST_TIME_NS = int(BURST_TIME * NS)


class PolicingVerdict(enum.Enum):
    FWD_FLYOVER = "fwd_flyover"
    FWD_BEST_EFFORT = "fwd_best_effort"


# Read once per process, not per packet: on CPython 3.11 looking up an enum
# member costs about ten global reads.
_FLYOVER, _BEST_EFFORT = PolicingVerdict.FWD_FLYOVER, PolicingVerdict.FWD_BEST_EFFORT
# kbps of every 10-bit header class, indexed by the class.
KBPS_OF_CLASS = tuple(bwcls.decode(bw_cls) for bw_cls in range(bwcls.MAX_CLASS + 1))


class TokenBucketArray:
    """Algorithm 1: one 8-byte virtual timestamp per ResID.

    A fresh bucket at 8 kbps admits 50 B (50 ms, the whole BurstTime) and
    not 100 B (100 ms):

    >>> array = TokenBucketArray(capacity=16)
    >>> array.monitor(res_id=3, bw_kbps=8, pkt_len=50, now=1000.0, res_start=990)
    <PolicingVerdict.FWD_FLYOVER: 'fwd_flyover'>
    >>> array.monitor(res_id=4, bw_kbps=8, pkt_len=100, now=1000.0, res_start=990)
    <PolicingVerdict.FWD_BEST_EFFORT: 'fwd_best_effort'>

    Bytes and caps belong to a *reservation*, ``(ResID, ResStart)``: FirstFit
    hands a ResID to later, non-overlapping windows (§4.4), and each of its
    holders starts at zero and is policed at its own rate.  The bucket
    itself is the ResID's, as in the paper: a later window starts after the
    earlier one ended, so its timestamp is already in the past.
    """

    __slots__ = ("_timestamps", "_usage", "_earlier_usage", "_limits")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._timestamps = memoryview(mmap.mmap(-1, 8 * capacity)).cast("q")
        # Per-reservation bytes forwarded with priority: the usage feed the
        # reclamation loop (and telemetry exports) consume; out-of-profile
        # traffic is best-effort and not attributed to the reservation.
        # Per ResID, the row ``[ResStart, bytes]`` of its latest reservation:
        # an in-profile packet pays one comparison and one store, and a
        # later holder's first packet sets the row it displaces aside in
        # ``_earlier_usage``, keyed by reservation.  Sparse, so a snapshot
        # sorts the active reservations instead of scanning the capacity.
        self._usage: dict[int, list[int]] = {}
        self._earlier_usage: dict[tuple[int, int], int] = {}
        # Per-reservation rate caps installed by the control plane when a
        # no-show's bandwidth is reclaimed: the header still advertises the
        # original class, but the bucket drains at the reclaimed rate for
        # the rest of that reservation.  Sparse — only a reclaimed
        # reservation's packets find one.
        self._limits: dict[tuple[int, int], int] = {}

    def monitor(
        self, res_id: int, bw_kbps: int, pkt_len: int, now: float, res_start: int
    ) -> PolicingVerdict:
        """BandwidthMonitoring(ResID, BW, PktLen) — Algorithm 1 verbatim, for
        the reservation of ``res_id`` that started at ``res_start``."""
        if not 0 <= res_id < len(self._timestamps):
            return _BEST_EFFORT
        if self._limits:
            limit = self._limits.get((res_id, res_start))
            if limit is not None and limit < bw_kbps:
                bw_kbps = limit
        if bw_kbps <= 0:
            return _BEST_EFFORT
        now_ns = int(now * NS)
        # PktLen / BW in nanoseconds: bytes * 8 bits / (kbps * 1000 bits/s).
        transmit_ns = pkt_len * 8 * 1_000_000 // bw_kbps
        timestamp = max(self._timestamps[res_id], now_ns) + transmit_ns
        if timestamp <= now_ns + _BURST_TIME_NS:
            self._timestamps[res_id] = timestamp
            row = self._usage.get(res_id)
            if row is None or row[0] != res_start:
                row = self._usage_row(res_id, res_start)
            row[1] += pkt_len
            return _FLYOVER
        return _BEST_EFFORT

    def _usage_row(self, res_id: int, res_start: int) -> list[int]:
        """Make a reservation its ResID's latest: the displaced row moves to
        ``_earlier_usage``, and the reservation's own comes back from it."""
        row = self._usage.get(res_id)
        if row is not None:
            self._earlier_usage[res_id, row[0]] = row[1]
        row = self._usage[res_id] = [
            res_start, self._earlier_usage.pop((res_id, res_start), 0)
        ]
        return row

    def _usage_rows(self) -> dict[tuple[int, int], int]:
        """Every reservation's row, ``(ResID, ResStart)`` -> bytes."""
        rows = dict(self._earlier_usage)
        for res_id, (res_start, used) in self._usage.items():
            rows[res_id, res_start] = used
        return rows

    def usage_bytes(self, res_id: int, res_start: int) -> int:
        """Bytes forwarded with priority on one reservation so far: its
        ResID's latest row or the one set aside for it, never a scan."""
        row = self._usage.get(res_id)
        if row is not None and row[0] == res_start:
            return row[1]
        return self._earlier_usage.get((res_id, res_start), 0)

    def reservations(self) -> set[tuple[int, int]]:
        """Every ``(ResID, ResStart)`` holding a cap or a usage row."""
        return set(self._limits) | set(self._usage_rows())

    def retain(self, reservations: set[tuple[int, int]]) -> None:
        """Forget every cap and usage row but those of ``reservations``."""
        for table in (self._limits, self._earlier_usage):
            for reservation in [r for r in table if r not in reservations]:
                del table[reservation]
        for res_id, (res_start, _) in list(self._usage.items()):
            if (res_id, res_start) not in reservations:
                del self._usage[res_id]

    def usage_snapshot(self) -> dict[tuple[int, int], int]:
        """Every reservation ``(ResID, ResStart)`` with non-zero priority
        traffic -> bytes forwarded, in ascending order."""
        return {key: used for key, used in sorted(self._usage_rows().items()) if used}

    def set_limit(self, res_id: int, res_start: int, bw_kbps: int) -> None:
        """Cap one reservation's policed rate below its header class.

        The reclamation loop's demotion hook: after a no-show's calendar
        bandwidth is reclaimed, the bucket drains at the reclaimed rate —
        a sender waking up late is forwarded best-effort beyond it.  A
        limit of 0 demotes every packet of the reservation.  The cap is the
        reservation's, not the ResID's: a later holder of the ResID is
        policed at its own rate.
        """
        if bw_kbps < 0:
            raise ValueError("limit must be >= 0")
        self._limits[int(res_id), int(res_start)] = int(bw_kbps)


class PerInterfacePolicer:
    """Per-ingress-interface policing arrays for one AS, each with the
    :data:`BURST_TIME` BurstTime.

    The AS controls ``ResIDmax`` through the minimum-bandwidth attribute of
    the assets it sells (§4.4): ``capacity`` should be sized as
    R * TotalBW / MinBW for First-Fit competitiveness R.  ``arrays`` maps an
    ingress interface to its array; the router polices a packet with that
    array's :meth:`TokenBucketArray.monitor` directly, at
    :data:`KBPS_OF_CLASS` of the header's bandwidth class, as
    :meth:`monitor` does.
    """

    __slots__ = ("capacity", "arrays")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.arrays: dict[int, TokenBucketArray] = {}

    def array_for(self, ingress_ifid: int) -> TokenBucketArray:
        array = self.arrays.get(ingress_ifid)
        if array is None:
            array = TokenBucketArray(self.capacity)
            self.arrays[ingress_ifid] = array
        return array

    def monitor(
        self,
        ingress_ifid: int,
        res_id: int,
        bw_cls: int,
        pkt_len: int,
        now: float,
        res_start: int,
    ) -> PolicingVerdict:
        """Police one packet; bandwidth arrives as the 10-bit header class.

        What the router does inline on a reserved hop, where
        :func:`~repro.crypto.keys.derive_auth_key` has already refused a
        class outside ten bits: look the ingress's array up and call its
        :meth:`TokenBucketArray.monitor`.
        """
        if not 0 <= bw_cls <= bwcls.MAX_CLASS:
            raise ValueError(f"bandwidth class {bw_cls} out of 10-bit range")
        return self.array_for(ingress_ifid).monitor(
            res_id, KBPS_OF_CLASS[bw_cls], pkt_len, now, res_start
        )

    def usage_bytes(self, ingress_ifid: int, res_id: int, res_start: int) -> int:
        """Priority bytes one reservation moved through one ingress."""
        array = self.arrays.get(ingress_ifid)
        return 0 if array is None else array.usage_bytes(res_id, res_start)

    def set_limit(self, ingress_ifid: int, res_id: int, res_start: int, bw_kbps: int) -> None:
        """Cap one reservation's policed rate (reclamation demotion)."""
        self.array_for(ingress_ifid).set_limit(res_id, res_start, bw_kbps)

    def reservations(self) -> set[tuple[int, int, int]]:
        """Every ``(ingress, ResID, ResStart)`` holding a cap or a usage row."""
        return {
            (ingress, res_id, res_start)
            for ingress, array in self.arrays.items()
            for res_id, res_start in array.reservations()
        }

    def retain(self, reservations: set[tuple[int, int, int]]) -> None:
        """Forget every cap and usage row but those of ``reservations``,
        ``(ingress, ResID, ResStart)``: the reclamation loop's live ones."""
        for ingress, array in self.arrays.items():
            array.retain({(r, s) for i, r, s in reservations if i == ingress})

    def record_gauges(self, isd_as: str = "") -> None:
        """Publish array residency + per-flow byte gauges to the registry.

        On-demand (end of a scenario, or periodic sampling) — never on the
        per-packet path.  A ResID's byte gauge shows its latest reservation.
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
        for ingress, array in sorted(self.arrays.items()):
            residency.labels(isd_as, ingress).set(array._timestamps.nbytes)
            for (res_id, _), used in array.usage_snapshot().items():
                flow_bytes.labels(isd_as, ingress, res_id).set(used)
