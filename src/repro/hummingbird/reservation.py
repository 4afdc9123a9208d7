"""Flyover reservations (Eq. 1): the unit of bandwidth reservation.

A flyover is granted by one AS for one directed interface pair and a time
window::

    ResInfo_K = (In, Eg, ResID, BW, StrT, Dur)

``In``/``Eg`` are in *traffic direction*: the reservation prioritizes traffic
entering at ``In`` and leaving at ``Eg`` (interface 0 denotes "inside the
AS", for reservations starting or ending at this AS).  The granting AS is
identified implicitly by the authentication key :math:`A_K` (§4.1) — no
source address or network identity is part of the reservation, which is what
enables the tradable-asset control plane.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import SecretValue, derive_auth_key
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.scion.addresses import IsdAs
from repro.wire import bwcls

MAX_DURATION = (1 << 16) - 1  # 16-bit seconds, about 18.2 hours


@dataclass(frozen=True)
class ResInfo:
    """The public reservation parameters authenticated by the flyover MAC."""

    ingress: int
    egress: int
    res_id: int
    bw_cls: int
    start: int  # absolute Unix seconds (StrT)
    duration: int  # seconds (Dur)

    def __post_init__(self) -> None:
        if not 0 <= self.ingress < 1 << 16:
            raise ValueError(f"ingress {self.ingress} out of 16-bit range")
        if not 0 <= self.egress < 1 << 16:
            raise ValueError(f"egress {self.egress} out of 16-bit range")
        if not 0 <= self.res_id < 1 << 22:
            raise ValueError(f"ResID {self.res_id} out of 22-bit range")
        if not 0 <= self.bw_cls < 1 << 10:
            raise ValueError(f"bandwidth class {self.bw_cls} out of 10-bit range")
        if not 0 <= self.start < 1 << 32:
            raise ValueError(f"start {self.start} out of 32-bit range")
        if not 0 < self.duration <= MAX_DURATION:
            raise ValueError(f"duration {self.duration} outside (0, {MAX_DURATION}]")

    @property
    def expiry(self) -> int:
        """Absolute expiration time (StrT + Dur)."""
        return self.start + self.duration

    @property
    def bandwidth_kbps(self) -> int:
        """Decoded reservation bandwidth in kilobits per second."""
        return bwcls.decode(self.bw_cls)

    def active_at(self, now: float) -> bool:
        """Reservation-active check of Algorithm 3 (no clock-skew slack)."""
        return self.start <= now <= self.expiry


@dataclass(frozen=True)
class FlyoverReservation:
    """A redeemed reservation as held by a source host: ResInfo plus key."""

    isd_as: IsdAs
    resinfo: ResInfo
    auth_key: bytes  # A_K, 16 bytes

    def __post_init__(self) -> None:
        if len(self.auth_key) != 16:
            raise ValueError("authentication key must be 16 bytes")

    @property
    def ingress(self) -> int:
        return self.resinfo.ingress

    @property
    def egress(self) -> int:
        return self.resinfo.egress

    def __repr__(self) -> str:
        r = self.resinfo
        return (
            f"FlyoverReservation({self.isd_as}, in={r.ingress}, eg={r.egress}, "
            f"id={r.res_id}, bw={r.bandwidth_kbps}kbps, "
            f"[{r.start}, {r.expiry}])"
        )


def grant_reservation(
    isd_as: IsdAs,
    secret_value: SecretValue,
    resinfo: ResInfo,
    prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
) -> FlyoverReservation:
    """AS-side issuance: derive :math:`A_K` for ``resinfo`` (Eq. 2).

    The AS never stores per-reservation keys — any border router can
    re-derive :math:`A_K` from the packet's reservation information and the
    AS-local secret value.
    """
    auth_key = derive_auth_key(
        prf_factory(secret_value.key),
        resinfo.ingress,
        resinfo.egress,
        resinfo.res_id,
        resinfo.bw_cls,
        resinfo.start,
        resinfo.duration,
    )
    return FlyoverReservation(isd_as=isd_as, resinfo=resinfo, auth_key=auth_key)
