"""The bandwidth-asset contract (§4.2): tradable reservation vouchers.

Bandwidth assets are on-chain objects representing reserved bandwidth on a
single AS interface (used as ingress *or* egress) over a time interval.
They are:

* **authenticated** — only ASes that registered with a CP-PKI proof of
  possession can issue assets, and the AS identity inside each asset comes
  from the authorization token, never from user input;
* **splittable** — in the time dimension (multiples of the AS-chosen time
  granularity) and the bandwidth dimension (not below the AS-chosen
  minimum bandwidth, which bounds the AS's policing state, §4.4);
* **fusable** — adjacent-time or same-interval assets recombine;
* **redeemable** — a compatible ingress/egress pair plus an ephemeral
  public key becomes a redeem request routed to the issuing AS, which
  answers with the sealed reservation data (``ResInfo``, :math:`A_K`).

Asset attributes follow §4.2 "Asset Representation" exactly; see
:data:`ASSET_TYPE` payload keys.
"""

from __future__ import annotations

from repro.contracts.framework import CallContext, Contract, ContractAbort
from repro.crypto.signatures import Signature, verify
from repro.ledger.objects import LedgerObject, Ownership

ASSET_TYPE = "asset::BandwidthAsset"
TOKEN_TYPE = "asset::AuthorizationToken"
REQUEST_TYPE = "asset::RedeemRequest"
DELIVERY_TYPE = "asset::EncryptedReservation"


def delivery_context(request: str) -> bytes:
    """Key-derivation context of the sealed answer to redeem request *request*.

    Request ids are unique, so two answers under one Diffie-Hellman share
    never derive the same keys, and a box sealed as the answer to one
    request does not open as the answer to another.
    """
    return b"hummingbird-resv:" + request.encode()


# Payload keys of a BandwidthAsset (the attribute list of §4.2):
#   isd, asn            AS identifier (set from the authorization token)
#   issuer              AS on-chain address (redeem-request routing)
#   bandwidth_kbps      Bandwidth (-> BW on the data plane)
#   start, expiry       StrT and StrT + Dur
#   interface           AS interface identifier (-> In or Eg)
#   is_ingress          ingress/egress indicator
#   granularity         minimum reservation duration (seconds)
#   min_bandwidth_kbps  minimum reservation bandwidth


class AssetContract(Contract):
    """Issuance, splitting, fusing and redemption of bandwidth assets."""

    name = "asset"

    def __init__(self, pki) -> None:
        """``pki`` is a :class:`repro.controlplane.pki.CpPki` trust anchor."""
        self._pki = pki

    # -- AS registration -------------------------------------------------------

    def register_as(
        self,
        ctx: CallContext,
        certificate: dict,
        commitment: int,
        response: int,
    ) -> dict:
        """Verify an AS certificate + proof of possession; issue a token.

        The proof of possession is a Schnorr signature over the sender's
        address, which binds the AS key to the on-chain account and
        prevents replaying someone else's registration.
        """
        ctx.require(self._pki.verify_certificate(certificate), "invalid AS certificate")
        public_key = int.from_bytes(certificate["public_key"], "big")
        proof_ok = verify(
            public_key,
            ctx.sender.encode(),
            Signature(commitment=commitment, response=response),
        )
        ctx.require(proof_ok, "proof of possession failed")
        token = ctx.create_object(
            TOKEN_TYPE,
            {
                "isd": certificate["isd"],
                "asn": certificate["asn"],
                "as_address": ctx.sender,
            },
        )
        ctx.emit("AsRegistered", {"isd": certificate["isd"], "asn": certificate["asn"]})
        return {"token": token.object_id}

    # -- issuance ----------------------------------------------------------------

    def issue(
        self,
        ctx: CallContext,
        token: str,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        interface: int,
        is_ingress: bool,
        granularity: int,
        min_bandwidth_kbps: int,
    ) -> dict:
        """Issue a bandwidth asset; AS identity comes from the token."""
        auth = ctx.take_owned(token, TOKEN_TYPE)
        ctx.require(expiry > start, "expiry must exceed start")
        ctx.require(granularity > 0, "granularity must be positive")
        ctx.require(
            (expiry - start) % granularity == 0,
            "asset duration must be a multiple of the time granularity",
        )
        ctx.require(min_bandwidth_kbps > 0, "minimum bandwidth must be positive")
        ctx.require(
            bandwidth_kbps >= min_bandwidth_kbps,
            "asset bandwidth below the minimum bandwidth",
        )
        asset = ctx.create_object(
            ASSET_TYPE,
            {
                "isd": auth.payload["isd"],
                "asn": auth.payload["asn"],
                "issuer": auth.payload["as_address"],
                "bandwidth_kbps": int(bandwidth_kbps),
                "start": int(start),
                "expiry": int(expiry),
                "interface": int(interface),
                "is_ingress": bool(is_ingress),
                "granularity": int(granularity),
                "min_bandwidth_kbps": int(min_bandwidth_kbps),
            },
        )
        return {"asset": asset.object_id}

    # -- splitting & fusing ---------------------------------------------------

    def split_time(self, ctx: CallContext, asset: str, split_at: int) -> dict:
        """Split into [start, split_at) and [split_at, expiry)."""
        original = ctx.take_owned(asset, ASSET_TYPE)
        piece = split_time_inner(ctx, original, split_at, new_owner=ctx.sender)
        return {"first": original.object_id, "second": piece.object_id}

    def split_bandwidth(self, ctx: CallContext, asset: str, bandwidth_kbps: int) -> dict:
        """Split ``bandwidth_kbps`` off into a new asset (same interval)."""
        original = ctx.take_owned(asset, ASSET_TYPE)
        piece = split_bandwidth_inner(ctx, original, bandwidth_kbps, new_owner=ctx.sender)
        return {"first": original.object_id, "second": piece.object_id}

    def fuse_time(self, ctx: CallContext, first: str, second: str) -> dict:
        """Recombine two time-adjacent assets; the second is destroyed."""
        a = ctx.take_owned(first, ASSET_TYPE)
        b = ctx.take_owned(second, ASSET_TYPE)
        ctx.require(a.payload["expiry"] == b.payload["start"], "assets not adjacent in time")
        for key in ("isd", "asn", "interface", "is_ingress", "bandwidth_kbps"):
            ctx.require(a.payload[key] == b.payload[key], f"assets differ in {key}")
        a.payload["expiry"] = b.payload["expiry"]
        ctx.mutate(a)
        ctx.delete_object(b)
        return {"asset": a.object_id}

    def fuse_bandwidth(self, ctx: CallContext, first: str, second: str) -> dict:
        """Recombine two same-interval assets; bandwidths add up."""
        a = ctx.take_owned(first, ASSET_TYPE)
        b = ctx.take_owned(second, ASSET_TYPE)
        for key in ("isd", "asn", "interface", "is_ingress", "start", "expiry"):
            ctx.require(a.payload[key] == b.payload[key], f"assets differ in {key}")
        a.payload["bandwidth_kbps"] += b.payload["bandwidth_kbps"]
        ctx.mutate(a)
        ctx.delete_object(b)
        return {"asset": a.object_id}

    # -- redemption ---------------------------------------------------------------

    def redeem(self, ctx: CallContext, ingress: str, egress: str, public_key: bytes) -> dict:
        """Exchange a compatible asset pair for a redeem request (Fig. 2, step 5).

        The two assets are wrapped into the request (they leave the object
        store and can no longer be traded); the request is transferred to
        the issuing AS, which will answer with
        :meth:`deliver_reservation`.
        """
        ingress_asset = ctx.take_owned(ingress, ASSET_TYPE)
        egress_asset = ctx.take_owned(egress, ASSET_TYPE)
        ctx.require(ingress_asset.payload["is_ingress"], "first asset is not ingress")
        ctx.require(not egress_asset.payload["is_ingress"], "second asset is not egress")
        for key in ("isd", "asn", "issuer", "bandwidth_kbps", "start", "expiry"):
            ctx.require(
                ingress_asset.payload[key] == egress_asset.payload[key],
                f"assets incompatible in {key}",
            )
        duration = ingress_asset.payload["expiry"] - ingress_asset.payload["start"]
        ctx.require(
            duration < 1 << 16,
            "reservation duration exceeds the 16-bit ResDuration field; "
            "split the assets in time before redeeming",
        )
        request = ctx.create_object(
            REQUEST_TYPE,
            {
                "redeemer": ctx.sender,
                "public_key": bytes(public_key),
                "ingress": dict(ingress_asset.payload),
                "egress": dict(egress_asset.payload),
            },
            owner=ingress_asset.payload["issuer"],
        )
        ctx.delete_object(ingress_asset)
        ctx.delete_object(egress_asset)
        ctx.emit(
            "RedeemRequested",
            {
                "request": request.object_id,
                "isd": ingress_asset.payload["isd"],
                "asn": ingress_asset.payload["asn"],
            },
        )
        return {"request": request.object_id}

    def deliver_reservation(
        self,
        ctx: CallContext,
        request: str,
        kem_share: bytes,
        ciphertext: bytes,
        tag: bytes,
    ) -> dict:
        """AS answer (Fig. 2, steps 7-8): sealed reservation to the redeemer.

        Destroys the redeem request (and with it the wrapped assets), so the
        voucher cannot be redeemed or traded again.
        """
        req = ctx.take_owned(request, REQUEST_TYPE)  # sender must be the issuer
        delivery = ctx.create_object(
            DELIVERY_TYPE,
            {
                "kem_share": bytes(kem_share),
                "ciphertext": bytes(ciphertext),
                "tag": bytes(tag),
            },
            owner=req.payload["redeemer"],
        )
        redeemer = req.payload["redeemer"]
        ctx.delete_object(req)
        ctx.emit(
            "ReservationDelivered",
            {"delivery": delivery.object_id, "redeemer": redeemer, "request": request},
        )
        return {"delivery": delivery.object_id}


# ---------------------------------------------------------------------------
# Split helpers shared with the market contract (which splits listed assets
# it owns on behalf of buyers).
# ---------------------------------------------------------------------------


def split_time_inner(
    ctx: CallContext, original: LedgerObject, split_at: int, new_owner: str
) -> LedgerObject:
    payload = original.payload
    if not payload["start"] < split_at < payload["expiry"]:
        raise ContractAbort("split point outside the asset interval")
    granularity = payload["granularity"]
    if (split_at - payload["start"]) % granularity or (payload["expiry"] - split_at) % granularity:
        raise ContractAbort("split pieces must be multiples of the time granularity")
    piece_payload = dict(payload)
    piece_payload["start"] = int(split_at)
    payload["expiry"] = int(split_at)
    ctx.mutate(original)
    piece = ctx.create_object(ASSET_TYPE, piece_payload, owner=new_owner)
    return piece


def split_bandwidth_inner(
    ctx: CallContext, original: LedgerObject, bandwidth_kbps: int, new_owner: str
) -> LedgerObject:
    payload = original.payload
    minimum = payload["min_bandwidth_kbps"]
    remainder = payload["bandwidth_kbps"] - bandwidth_kbps
    if bandwidth_kbps < minimum:
        raise ContractAbort("split bandwidth below the minimum bandwidth")
    if remainder < minimum:
        raise ContractAbort("remaining bandwidth below the minimum bandwidth")
    piece_payload = dict(payload)
    piece_payload["bandwidth_kbps"] = int(bandwidth_kbps)
    payload["bandwidth_kbps"] = int(remainder)
    ctx.mutate(original)
    piece = ctx.create_object(ASSET_TYPE, piece_payload, owner=new_owner)
    return piece


def asset_units(payload: dict) -> int:
    """Pricing unit of an asset: kbps-seconds of reserved bandwidth."""
    return payload["bandwidth_kbps"] * (payload["expiry"] - payload["start"])
