"""Reservation key derivation (Eq. 2, Fig. 12) and AS secret values.

Each AS :math:`K` holds a secret value :math:`SV_K` shared among its border
routers.  The authentication key for a reservation is

.. math:: A_K = PRF_{SV_K}(ResInfo_K)

where the PRF input is the 16-byte layout of Fig. 12::

    ConsIngress (16) | ConsEgress (16)
    ResID       (22) | BW         (10)
    ResStart    (32)
    ResDuration (16) | zero padding (16)

The input being exactly one AES block means routers can re-derive keys with
a single block encryption — the statelessness property of §3.1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.prf import Prf

RESINFO_INPUT_SIZE = 16


def pack_resinfo_input(
    ingress: int,
    egress: int,
    res_id: int,
    bw_cls: int,
    res_start: int,
    res_duration: int,
) -> bytes:
    """Serialize reservation parameters into the Fig. 12 key-derivation block."""
    if not 0 <= ingress < 1 << 16:
        raise ValueError(f"ingress interface {ingress} out of 16-bit range")
    if not 0 <= egress < 1 << 16:
        raise ValueError(f"egress interface {egress} out of 16-bit range")
    if not 0 <= res_id < 1 << 22:
        raise ValueError(f"ResID {res_id} out of 22-bit range")
    if not 0 <= bw_cls < 1 << 10:
        raise ValueError(f"bandwidth class {bw_cls} out of 10-bit range")
    if not 0 <= res_start < 1 << 32:
        raise ValueError(f"ResStart {res_start} out of 32-bit range")
    if not 0 <= res_duration < 1 << 16:
        raise ValueError(f"ResDuration {res_duration} out of 16-bit range")
    return (
        ingress.to_bytes(2, "big")
        + egress.to_bytes(2, "big")
        + ((res_id << 10) | bw_cls).to_bytes(4, "big")
        + res_start.to_bytes(4, "big")
        + res_duration.to_bytes(2, "big")
        + b"\x00\x00"
    )


@dataclass(frozen=True)
class SecretValue:
    """An AS-local secret value :math:`SV_K`, shared among border routers."""

    key: bytes

    @staticmethod
    def from_seed(seed: str) -> "SecretValue":
        """Deterministically derive a secret value for simulations/tests."""
        return SecretValue(hashlib.blake2s(seed.encode(), digest_size=16).digest())


def derive_auth_key(
    secret_value_prf: Prf,
    ingress: int,
    egress: int,
    res_id: int,
    bw_cls: int,
    res_start: int,
    res_duration: int,
) -> bytes:
    """Compute the reservation authentication key :math:`A_K` (Eq. 2).

    ``secret_value_prf`` is the PRF already keyed with :math:`SV_K`.
    """
    block = pack_resinfo_input(ingress, egress, res_id, bw_cls, res_start, res_duration)
    return secret_value_prf.compute(block)
