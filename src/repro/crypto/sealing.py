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

* Diffie-Hellman secrets are 1024-bit, drawn from ``[2^1023, 2^1024)``.
  The 2048-bit safe-prime group offers ~112 bits of security, and RFC 3526
  §8 / RFC 7919 §5.2 sanction exponents of twice that strength (225 bits
  and up) in such a group; a uniform exponent below ``p`` buys nothing
  more.  Best of 30 with CPython 3.11's ``pow`` on the 2-core box:
  variable-base ``h^x mod p`` takes ~34 ms with a full-width ``x``, ~14 ms
  at 1024 bits and ~4.5 ms at 256.
  1024 is a step, not the floor.  ``benchmarks/e2e`` times a single
  purchase per round on two workloads and bounds the run-to-run spread of
  ``lifecycles_per_s`` by a share of the *previous* rate; at 256 bits a
  purchase is ~75 ms, eight times shorter than the rounds were sized for,
  and ten runs of one commit no longer agree to within that bound.
  ROADMAP item 1 re-sizes the rounds first and lowers ``_SECRET_BITS`` after.
* ``g^x`` — every :meth:`KeyPair.generate`, so every redeem and every
  ephemeral share :func:`seal` draws — goes through a fixed-base comb
  (:mod:`repro.crypto.fixedbase`): 512 products of ``g^(2^(114·row))``
  built once, when this module is imported, then 114 squarings and at most
  114 multiplications a key where ``pow`` spends 1,023 squarings: ~11.3 →
  ~2.8 ms, the same integer.  The table is sized ``_SECRET_BITS``, not the
  group: a comb costs its full column count whatever the exponent, so the
  Schnorr side (:mod:`repro.crypto.signatures`, full-width exponents, base
  4) keeps a second table instead of doubling the work here.  This one
  builds in ~18 ms and holds ~0.16 MB.  The two variable-base
  exponentiations (``h^x`` in :func:`seal` and :func:`unseal`, ~14 ms)
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
  :func:`unseal` refuse such elements with ``ValueError``.

No constant-time claim is made for any of this: the comb skips the
multiplication of an all-zero column, and CPython's ``pow`` is not
constant-time either.  Wire and ledger encodings are unchanged — a group
element is 256 bytes whatever the exponent that produced it.
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
_SECRET_BITS = 1024  # RFC 7919 §5.2 asks for >= 225 in this group; see "Cost" above
# Built at import, not on first use: the first purchase of a process is timed too.
_G_POW = FixedBase(MODP_G, MODP_P, _SECRET_BITS).pow


def check_group_element(value: int) -> None:
    """Refuse a received group element outside ``[2, p-2]`` (SP 800-56A partial validation)."""
    if not 2 <= value <= MODP_P - 2:
        raise ValueError("public key is not a group element in [2, p-2]")


@dataclass(frozen=True)
class KeyPair:
    """A Diffie-Hellman keypair; the public part travels inside redeem requests."""

    secret: int
    public: int

    @staticmethod
    def generate(rng) -> "KeyPair":
        """Generate a keypair from a ``random.Random``-like source.

        The secret is 1024-bit with the top bit set, so none is accidentally
        tiny and every key costs the same number of squarings.
        """
        secret = rng.randrange(1 << (_SECRET_BITS - 1), 1 << _SECRET_BITS)
        return KeyPair(secret=secret, public=_G_POW(secret))


@dataclass(frozen=True)
class SealedBox:
    """Ciphertext envelope: ephemeral share, CTR ciphertext, CMAC tag."""

    kem_share: int
    ciphertext: bytes
    tag: bytes

    def serialized_size(self) -> int:
        """Byte size when stored on chain (for gas accounting)."""
        return _GROUP_BYTES + len(self.ciphertext) + len(self.tag)


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
    recipient_public: int,
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
        ValueError: ``recipient_public`` is not a usable group element, or a
            message was already sealed under this share and ``context`` (the
            same CTR keystream and CMAC key twice); nothing is encrypted.
    """
    check_group_element(recipient_public)
    if exchanges is None:
        exchanges = {}
    if recipient_public not in exchanges:
        ephemeral = KeyPair.generate(rng)
        shared = pow(recipient_public, ephemeral.secret, MODP_P)
        exchanges[recipient_public] = (ephemeral.public, shared, set())
    kem_share, shared, sealed_contexts = exchanges[recipient_public]
    if context in sealed_contexts:
        raise ValueError("a message was already sealed under this share and context")
    sealed_contexts.add(context)
    enc_key, mac_key = _kdf(shared, context)
    keystream = _ctr_keystream(AES128(enc_key), len(plaintext))
    ciphertext = xor_bytes(plaintext, keystream)
    tag = Cmac(mac_key).compute(ciphertext)
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
    check_group_element(box.kem_share)
    if exchanges is None:
        exchanges = {}
    pair = (recipient.public, box.kem_share)
    if pair not in exchanges:
        exchanges[pair] = pow(box.kem_share, recipient.secret, MODP_P)
    enc_key, mac_key = _kdf(exchanges[pair], context)
    if Cmac(mac_key).compute(box.ciphertext) != box.tag:
        raise ValueError("sealed box authentication failed")
    keystream = _ctr_keystream(AES128(enc_key), len(box.ciphertext))
    return xor_bytes(box.ciphertext, keystream)
