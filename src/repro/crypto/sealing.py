"""Public-key envelope used for reservation delivery (§4.2, steps 5-8).

When a host redeems a pair of bandwidth assets, it attaches an *ephemeral
public key*; the issuing AS encrypts ``(ResInfo, A_K)`` under that key and
posts the ciphertext back through the asset contract.  Only the holder of
the ephemeral secret key can recover the reservation authentication key.

The paper does not prescribe a specific scheme.  We implement a compact
ECIES-style KEM/DEM over the multiplicative group of a 2048-bit safe prime
(classic integrated encryption, textbook-honest but implemented from
scratch to keep the repository dependency-free):

* KEM: static-ephemeral Diffie-Hellman in :math:`\\mathbb{Z}_p^*`.
* KDF: BLAKE2s over the shared secret and the message's ``context``.
* DEM: AES-128 in counter mode with an appended CMAC tag
  (encrypt-then-MAC).

Cost.  Public-key work is the whole CPU cost of a purchase (the rest of
Fig. 4 is ledger latency), so no modular exponentiation here runs at full
width, and none squares a base it has squared before:

* Diffie-Hellman secrets are ``_SECRET_BITS`` (512) wide, drawn from
  ``[2^511, 2^512)``.  The 2048-bit safe-prime group offers ~112 bits of
  security, and RFC 3526 §8 / RFC 7919 §5.2 sanction exponents of twice
  that strength (225 bits and up) in such a group; a uniform exponent
  below ``p`` buys nothing more.  Best of 25 with CPython 3.11's ``pow``
  on the 2-core box: variable-base ``h^x mod p`` takes ~34 ms with a
  full-width ``x``, ~14 ms at 1024 bits, ~7 ms at 512 and ~3.6 ms at 256.
  Secrets stay 512 bits: ROADMAP item 19 supersedes the 256-bit step
  (item 1(b)) with the chosen route, the exchange on OpenSSL's X25519
  (``EVP_PKEY_derive``), bound through :mod:`repro.crypto.libcrypto` as
  the AES and Ed25519 calls are; it retires this group and
  :mod:`repro.crypto.fixedbase`.  It waits for item 1a to re-pin the
  ``benchmarks/e2e`` smoke test's assertion that public-key work is at
  least 0.9 of a 4-hop purchase's control phase (``crypto.control_share``;
  ten smoke runs read 0.933-0.941 at 512 bits), which the faster exchange
  would pull under.
* ``g^x`` — every :meth:`KeyPair.generate`, so every redeem and every
  ephemeral share :func:`seal` draws — goes through a fixed-base comb
  (:mod:`repro.crypto.fixedbase`): 512 products of ``g^(2^(57·row))``
  built once, when this module is imported, then 57 squarings and at most
  57 multiplications a key where ``pow`` spends 511 squarings: ~5.5 →
  ~1.3 ms, the same integer.  The table is sized ``_SECRET_BITS``, not the
  group: a comb costs its full column count whatever the exponent.  It is
  the only one, and nothing outside this module raises a power in the
  group.  It builds in ~12 ms and holds ~0.16 MB.  The two variable-base
  exponentiations (``h^x`` in :func:`seal` and :func:`unseal`, ~7 ms)
  have no fixed base to precompute and stay on ``pow``.
* A lifecycle pays ``SigningKey.public`` once, the host's
  :meth:`KeyPair.generate` once, and three exponentiations — the ephemeral
  ``g^x``, ``h^x`` in :func:`seal`, ``share^x`` in :func:`unseal` — per
  distinct *(AS, redeem key)* pair, not per reservation: :func:`seal` and
  :func:`unseal` take a table of the batch's exchanges (``exchanges``),
  which ``AsService.poll_and_deliver`` owns for one poll and
  ``HostClient.collect_reservations`` for one collect.  A 4-hop purchase
  has 4 pairs (1 + 1 + 3·4 = 14, as before); a two-leg transfer over three
  hops redeems six times under one key at three ASes, 3 pairs
  (1 + 1 + 3·3 = 11, where one exchange a reservation paid 1 + 1 + 3·6 =
  20).  One KEM, many DEMs: every message under a share derives its own
  AES and CMAC keys from the shared secret and its own ``context`` (the
  redeem request's id), :func:`seal` refuses a repeated ``(share,
  context)`` before it encrypts anything, and encrypt-then-MAC is what it
  was.  A repeated share tells an observer that one AS answered two
  requests carrying the same ``public_key`` in the same poll — which the
  requests, public on the ledger, already said.  No table is kept past the
  call that made it, so no ephemeral or shared secret is either; one-shot
  callers pass none and get a fresh ephemeral per :func:`seal`.
* Short exponents make public-key validation mandatory: a received group
  element outside ``[2, p-2]`` (NIST SP 800-56A partial validation — in a
  safe-prime group the only small subgroup is ``{1, p-1}``) would confine
  the shared secret to a set the sender can enumerate.  :func:`seal` and
  :func:`unseal` refuse such elements, and any encoding that is not
  exactly 256 ``bytes``, with ``ValueError``.

No constant-time claim is made for any of this: the comb skips the
multiplication of an all-zero column, and CPython's ``pow`` is not
constant-time either.

Encoding.  This module owns the wire and ledger form of a group element:
256 bytes, big-endian, whatever the exponent that produced it.
:attr:`KeyPair.public` and :attr:`SealedBox.kem_share` are those bytes,
:func:`seal` takes the recipient's key as bytes, the exchange tables are
keyed by them, and :func:`check_group_element` is the one decoder.  The
control plane passes keys and shares from redeem request to delivery
object and back without reading them, so a change of group changes this
module and nothing that calls it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.aes import AES128, BLOCK_SIZE, xor_bytes
from repro.crypto.cmac import Cmac
from repro.crypto.fixedbase import FixedBase

# RFC 3526 group 14: 2048-bit MODP group (safe prime, generator 2).
MODP_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
MODP_G = 2
_GROUP_BYTES = 256
# RFC 7919 §5.2 asks for >= 225 in this group; see "Cost" above.
_SECRET_BITS = 512
# Built at import, not on first use: the first purchase of a process is timed too.
_G_POW = FixedBase(MODP_G, MODP_P, _SECRET_BITS).pow


def check_group_element(value: bytes) -> int:
    """The group element a received encoding names, refused unless usable.

    Only exact ``bytes`` of ``_GROUP_BYTES`` are an encoding: a subclass,
    a ``bytearray`` or any other type is a ``ValueError`` like a short key,
    never a ``TypeError`` its caller's refusal handler would not expect.
    The value must lie in ``[2, p-2]`` (SP 800-56A partial validation).
    """
    if type(value) is not bytes or len(value) != _GROUP_BYTES:
        raise ValueError(f"public key is not {_GROUP_BYTES} bytes")
    element = int.from_bytes(value, "big")
    if not 2 <= element <= MODP_P - 2:
        raise ValueError("public key is not a group element in [2, p-2]")
    return element


@dataclass(frozen=True)
class KeyPair:
    """A Diffie-Hellman keypair; the public part, encoded, travels inside redeem requests."""

    secret: int
    public: bytes

    @staticmethod
    def generate(rng) -> "KeyPair":
        """Generate a keypair from a ``random.Random``-like source.

        The secret is ``_SECRET_BITS`` wide with the top bit set, so none is
        accidentally tiny and every key costs the same number of squarings.
        """
        secret = rng.randrange(1 << (_SECRET_BITS - 1), 1 << _SECRET_BITS)
        return KeyPair(secret=secret, public=_G_POW(secret).to_bytes(_GROUP_BYTES, "big"))


@dataclass(frozen=True)
class SealedBox:
    """Ciphertext envelope: ephemeral share, CTR ciphertext, CMAC tag."""

    kem_share: bytes
    ciphertext: bytes
    tag: bytes


def _kdf(shared_secret: int, context: bytes) -> tuple[bytes, bytes]:
    """Derive independent encryption and MAC keys from the DH shared secret."""
    material = hashlib.blake2s(
        shared_secret.to_bytes(_GROUP_BYTES, "big") + context, digest_size=32
    ).digest()
    return material[:16], material[16:]


def _ctr_keystream(cipher: AES128, length: int) -> bytes:
    stream = bytearray()
    counter = 0
    while len(stream) < length:
        stream += cipher.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        counter += 1
    return bytes(stream[:length])


def seal(
    recipient_public: bytes,
    plaintext: bytes,
    rng,
    context: bytes = b"hummingbird-resv",
    exchanges: dict | None = None,
) -> SealedBox:
    """Encrypt ``plaintext`` so only the holder of the matching secret can read it.

    Without ``exchanges`` a fresh ephemeral secret is drawn per call.  With
    it — a dict the caller owns for one batch and drops afterwards — the
    first message to a ``recipient_public`` draws the ephemeral key and runs
    the exchange, and every later one of the batch reuses both: one share on
    all their boxes, the message keys told apart by ``context`` alone.

    Raises:
        ValueError: ``recipient_public`` does not encode a usable group element, or a
            message was already sealed under this share and ``context`` (the
            same CTR keystream and CMAC key twice); nothing is encrypted.
    """
    recipient = check_group_element(recipient_public)
    if exchanges is None:
        exchanges = {}
    if recipient_public not in exchanges:
        ephemeral = KeyPair.generate(rng)
        shared = pow(recipient, ephemeral.secret, MODP_P)
        exchanges[recipient_public] = (ephemeral.public, shared, set())
    kem_share, shared, sealed_contexts = exchanges[recipient_public]
    if context in sealed_contexts:
        raise ValueError("a message was already sealed under this share and context")
    sealed_contexts.add(context)
    enc_key, mac_key = _kdf(shared, context)
    keystream = _ctr_keystream(AES128(enc_key), len(plaintext))
    ciphertext = xor_bytes(plaintext, keystream)
    tag = Cmac(AES128(mac_key)).compute(ciphertext)
    return SealedBox(kem_share=kem_share, ciphertext=ciphertext, tag=tag)


def unseal(
    recipient: KeyPair,
    box: SealedBox,
    context: bytes = b"hummingbird-resv",
    exchanges: dict | None = None,
) -> bytes:
    """Decrypt a :class:`SealedBox`; raises ``ValueError`` on a bad share or tag.

    ``exchanges`` is the receiving side of :func:`seal`'s table: a dict the
    caller owns for one batch, in which boxes carrying the same share for
    the same ``recipient`` pay for one exchange between them.
    """
    share = check_group_element(box.kem_share)
    if exchanges is None:
        exchanges = {}
    pair = (recipient.public, box.kem_share)
    if pair not in exchanges:
        exchanges[pair] = pow(share, recipient.secret, MODP_P)
    enc_key, mac_key = _kdf(exchanges[pair], context)
    if not Cmac(AES128(mac_key)).verify(box.ciphertext, box.tag):
        raise ValueError("sealed box authentication failed")
    keystream = _ctr_keystream(AES128(enc_key), len(box.ciphertext))
    return xor_bytes(box.ciphertext, keystream)
