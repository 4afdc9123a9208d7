"""Control-plane PKI for ASes (§3.2: RPKI / SCION CP-PKI stand-in).

A single trust anchor signs AS certificates binding (ISD, AS number) to an
Ed25519 public key.  The asset contract holds a reference to the anchor's
public key and verifies certificates during AS registration; possession of
the certified key is proven with a signature over the registering address.

Certificates are plain dicts (ledger-serializable): the subject's 32-byte
public key and the anchor's 64-byte signature are ``bytes``.
"""

from __future__ import annotations

import random

from repro.crypto.signatures import PUBLIC_KEY_BYTES, SigningKey, verify
from repro.scion.addresses import AS_BITS, ISD_BITS, IsdAs


def _cert_message(isd: int, asn: int, public_key: bytes) -> bytes:
    return b"as-cert:" + isd.to_bytes(2, "big") + asn.to_bytes(6, "big") + public_key


class CpPki:
    """The control-plane trust anchor: its root key is drawn from ``rng``,
    a stream no market account draws from."""

    def __init__(self, rng: random.Random) -> None:
        self._root = SigningKey.generate(rng)

    def issue_certificate(self, isd_as: IsdAs, subject_public_key: bytes) -> dict:
        """Sign a certificate for an AS's Ed25519 public key."""
        return {
            "isd": isd_as.isd,
            "asn": isd_as.asn,
            "public_key": subject_public_key,
            "signature": self._root.sign(
                _cert_message(isd_as.isd, isd_as.asn, subject_public_key)
            ),
        }

    def verify_certificate(self, certificate: dict) -> bool:
        """Check the anchor signature over (ISD, ASN, public key).

        A certificate arrives inside a transaction: a missing, mistyped or
        out-of-range field is ``False``, never an exception.
        """
        try:
            isd, asn = certificate["isd"], certificate["asn"]
            public_key, signature = certificate["public_key"], certificate["signature"]
        except (KeyError, TypeError):
            return False
        if not (
            isinstance(isd, int)
            and 0 <= isd < 1 << ISD_BITS
            and isinstance(asn, int)
            and 0 <= asn < 1 << AS_BITS
            and type(public_key) is bytes
            and len(public_key) == PUBLIC_KEY_BYTES
        ):
            return False
        return verify(self._root.public, _cert_message(isd, asn, public_key), signature)
