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

:meth:`FlyoverReservation.to_bytes` / :meth:`~FlyoverReservation.from_bytes`
are the one spelling of the reservation record an issuing AS seals to the
redeemer (§4.2) and a source hands to its destination (Appendix C).
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass

from repro.crypto.keys import SecretValue, derive_auth_key
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.scion.addresses import IsdAs
from repro.wire import bwcls

MAX_DURATION = (1 << 16) - 1  # 16-bit seconds, about 18.2 hours
# The reservation record's integer fields: ``IsdAs``'s, then ``ResInfo``'s.
_INTEGER_FIELDS = ("isd", "asn", "ingress", "egress", "res_id", "bw_cls", "start", "duration")


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

    def to_bytes(self) -> bytes:
        """The reservation record: a JSON object of the granting AS, the six
        ResInfo fields and ``A_K`` in hex."""
        numbers = (self.isd_as.isd, self.isd_as.asn, *astuple(self.resinfo))
        record = dict(zip(_INTEGER_FIELDS, numbers), auth_key=self.auth_key.hex())
        return json.dumps(record).encode()

    @staticmethod
    def from_bytes(data: bytes) -> "FlyoverReservation":
        """Parse a :meth:`to_bytes` record.

        Whoever sealed it chose it, so it is hostile input.

        Raises:
            ValueError: not UTF-8, not JSON, or a field out of range (a
                ``JSONDecodeError`` and a ``UnicodeDecodeError`` are both).
            KeyError: a field is missing.
            TypeError: the record is not a JSON object, or a field is not
                of its type (an integer field is exactly ``int``: ``1.0``
                and ``true`` are not).
        """
        record = json.loads(data.decode())
        isd, asn, *resinfo = numbers = [record[name] for name in _INTEGER_FIELDS]
        if any(type(number) is not int for number in numbers):
            raise TypeError(f"an integer field is not int: {numbers}")
        return FlyoverReservation(
            IsdAs(isd, asn), ResInfo(*resinfo), bytes.fromhex(record["auth_key"])
        )

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
