"""Control-plane PKI for ASes (§3.2: RPKI / SCION CP-PKI stand-in).

A single trust anchor signs AS certificates binding (ISD, AS number) to a
Schnorr public key.  The asset contract holds a reference to the anchor's
public key and verifies certificates during AS registration; possession of
the certified key is proven with a signature over the registering address.

Certificates are plain dicts (ledger-serializable): all group elements are
fixed-width byte strings so storage gas sees realistic sizes.
"""

from __future__ import annotations

import random

from repro.crypto.signatures import Signature, SigningKey, verify
from repro.scion.addresses import AS_BITS, ISD_BITS, IsdAs

_KEY_BYTES = 256


def _cert_message(isd: int, asn: int, public_key: bytes) -> bytes:
    return b"as-cert:" + isd.to_bytes(2, "big") + asn.to_bytes(6, "big") + public_key


class CpPki:
    """The control-plane trust anchor."""

    def __init__(self, seed: int = 2024) -> None:
        self._rng = random.Random(seed)
        self._root = SigningKey.generate(self._rng)

    def issue_certificate(self, isd_as: IsdAs, subject_public_key: int) -> dict:
        """Sign a certificate for an AS's Schnorr public key."""
        public_bytes = subject_public_key.to_bytes(_KEY_BYTES, "big")
        signature = self._root.sign(
            _cert_message(isd_as.isd, isd_as.asn, public_bytes), self._rng
        )
        return {
            "isd": isd_as.isd,
            "asn": isd_as.asn,
            "public_key": public_bytes,
            "sig_commitment": signature.commitment.to_bytes(_KEY_BYTES, "big"),
            "sig_response": signature.response.to_bytes(_KEY_BYTES, "big"),
        }

    def verify_certificate(self, certificate: dict) -> bool:
        """Check the anchor signature over (ISD, ASN, public key).

        A certificate arrives inside a transaction: a missing, mistyped or
        out-of-range field is ``False``, never an exception.
        """
        try:
            isd, asn = certificate["isd"], certificate["asn"]
            public_key = certificate["public_key"]
            commitment = certificate["sig_commitment"]
            response = certificate["sig_response"]
        except (KeyError, TypeError):
            return False
        if not (
            isinstance(isd, int)
            and 0 <= isd < 1 << ISD_BITS
            and isinstance(asn, int)
            and 0 <= asn < 1 << AS_BITS
            and all(
                isinstance(element, bytes) and len(element) == _KEY_BYTES
                for element in (public_key, commitment, response)
            )
        ):
            return False
        signature = Signature(
            commitment=int.from_bytes(commitment, "big"),
            response=int.from_bytes(response, "big"),
        )
        return verify(self._root.public, _cert_message(isd, asn, public_key), signature)
