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
import struct
from dataclasses import dataclass

from repro.crypto.prf import Prf
from repro.wire.bitfields import out_of_range

RESINFO_INPUT_SIZE = 16
_RESINFO_INPUT = struct.Struct(">HHIIH2x")  # the Fig. 12 layout above


def pack_resinfo_input(
    ingress: int,
    egress: int,
    res_id: int,
    bw_cls: int,
    res_start: int,
    res_duration: int,
) -> bytes:
    """Serialize reservation parameters into the Fig. 12 key-derivation block."""
    if not (res_id >> 22 or bw_cls >> 10):  # they share a word: struct checks only the word
        try:
            return _RESINFO_INPUT.pack(
                ingress, egress, res_id << 10 | bw_cls, res_start, res_duration
            )
        except struct.error:
            pass
    raise out_of_range(
        ("ingress interface", ingress, 16),
        ("egress interface", egress, 16),
        ("ResID", res_id, 22),
        ("bandwidth class", bw_cls, 10),
        ("ResStart", res_start, 32),
        ("ResDuration", res_duration, 16),
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
