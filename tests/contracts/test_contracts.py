"""Asset and market contracts: issuance, splitting, fusing, redeeming, trading."""

import random

import pytest

from repro.contracts.asset import ASSET_TYPE, REFUSAL_CODES, REQUEST_TYPE, AssetContract
from repro.contracts.coin import CoinContract, coin_balance
from repro.contracts.market import LISTING_TYPE, MarketContract
from repro.controlplane.pki import CpPki
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.transactions import Command, Result, Transaction
from repro.scion.addresses import IsdAs

AS_ID = IsdAs(1, 42)


@pytest.fixture
def world():
    """Ledger with contracts, a registered AS, and a funded buyer."""
    rng = random.Random(11)
    pki = CpPki(rng)
    ledger = Ledger()
    ledger.register_contract(CoinContract())
    ledger.register_contract(AssetContract(pki))
    ledger.register_contract(MarketContract())

    as_account = Account.generate(rng, "as")
    certificate = pki.issue_certificate(AS_ID, as_account.signing_key.public)
    proof = as_account.signing_key.sign(as_account.address.encode())
    registered = ledger.execute(
        Transaction(
            as_account.address,
            [
                Command(
                    "asset",
                    "register_as",
                    {
                        "certificate": certificate,
                        "signature": proof,
                    },
                )
            ],
        )
    )
    assert registered.ok, registered.error
    token = registered.returns[0]["token"]

    buyer = Account.generate(rng, "buyer")
    funded = ledger.execute(
        Transaction(buyer.address, [Command("coin", "mint", {"amount": sui_to_mist(10)})])
    )
    coin = funded.returns[0]["coin"]
    return {
        "rng": rng,
        "pki": pki,
        "ledger": ledger,
        "as_account": as_account,
        "token": token,
        "buyer": buyer,
        "coin": coin,
    }


def issue(world, **overrides):
    args = dict(
        token=world["token"],
        bandwidth_kbps=1_000_000,
        start=1000,
        expiry=1000 + 3600,
        interface=1,
        is_ingress=True,
        granularity=60,
        min_bandwidth_kbps=100,
    )
    args.update(overrides)
    effects = world["ledger"].execute(
        Transaction(world["as_account"].address, [Command("asset", "issue", args)])
    )
    assert effects.ok, effects.error
    return effects.returns[0]["asset"]


class TestRegistration:
    def test_forged_certificate_rejected(self, world):
        rng = world["rng"]
        impostor = Account.generate(rng, "impostor")
        fake_cert = {
            "isd": 1,
            "asn": 42,
            "public_key": impostor.signing_key.public,
            "signature": bytes(64),
        }
        proof = impostor.signing_key.sign(impostor.address.encode())
        effects = world["ledger"].execute(
            Transaction(
                impostor.address,
                [
                    Command(
                        "asset",
                        "register_as",
                        {
                            "certificate": fake_cert,
                            "signature": proof,
                        },
                    )
                ],
            )
        )
        assert not effects.ok

    def test_stolen_certificate_rejected(self, world):
        """Possessing someone's certificate without their key fails."""
        rng = world["rng"]
        thief = Account.generate(rng, "thief")
        certificate = world["pki"].issue_certificate(
            AS_ID, world["as_account"].signing_key.public
        )
        proof = thief.signing_key.sign(thief.address.encode())  # wrong key
        effects = world["ledger"].execute(
            Transaction(
                thief.address,
                [
                    Command(
                        "asset",
                        "register_as",
                        {
                            "certificate": certificate,
                            "signature": proof,
                        },
                    )
                ],
            )
        )
        assert not effects.ok
        assert "proof of possession" in effects.error

    def test_issue_without_token_rejected(self, world):
        effects = world["ledger"].execute(
            Transaction(
                world["buyer"].address,
                [
                    Command(
                        "asset",
                        "issue",
                        dict(
                            token="0" * 64,
                            bandwidth_kbps=1000,
                            start=0,
                            expiry=60,
                            interface=1,
                            is_ingress=True,
                            granularity=60,
                            min_bandwidth_kbps=100,
                        ),
                    )
                ],
            )
        )
        assert not effects.ok


class TestIssuanceRules:
    def test_as_identity_comes_from_token(self, world):
        asset_id = issue(world)
        asset = world["ledger"].get_object(asset_id)
        assert (asset.payload["isd"], asset.payload["asn"]) == (AS_ID.isd, AS_ID.asn)

    def test_duration_must_match_granularity(self, world):
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "issue",
                        dict(
                            token=world["token"],
                            bandwidth_kbps=1000,
                            start=0,
                            expiry=61,
                            interface=1,
                            is_ingress=True,
                            granularity=60,
                            min_bandwidth_kbps=100,
                        ),
                    )
                ],
            )
        )
        assert not effects.ok

    def test_bandwidth_below_minimum_rejected(self, world):
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "issue",
                        dict(
                            token=world["token"],
                            bandwidth_kbps=50,
                            start=0,
                            expiry=60,
                            interface=1,
                            is_ingress=True,
                            granularity=60,
                            min_bandwidth_kbps=100,
                        ),
                    )
                ],
            )
        )
        assert not effects.ok


class TestSplitFuse:
    def test_split_time_conserves_interval(self, world):
        asset_id = issue(world)
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_time", {"asset": asset_id, "split_at": 1000 + 1800})],
            )
        )
        assert effects.ok
        first = ledger.get_object(effects.returns[0]["first"])
        second = ledger.get_object(effects.returns[0]["second"])
        assert first.payload["expiry"] == second.payload["start"] == 2800
        assert first.payload["start"] == 1000
        assert second.payload["expiry"] == 4600

    def test_split_time_respects_granularity(self, world):
        asset_id = issue(world)
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_time", {"asset": asset_id, "split_at": 1030})],
            )
        )
        assert not effects.ok

    def test_split_bandwidth_conserves_total(self, world):
        asset_id = issue(world)
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_bandwidth", {"asset": asset_id, "bandwidth_kbps": 300_000})],
            )
        )
        assert effects.ok
        first = ledger.get_object(effects.returns[0]["first"])
        second = ledger.get_object(effects.returns[0]["second"])
        assert first.payload["bandwidth_kbps"] + second.payload["bandwidth_kbps"] == 1_000_000
        assert second.payload["bandwidth_kbps"] == 300_000

    def test_split_below_minimum_rejected(self, world):
        asset_id = issue(world, min_bandwidth_kbps=400_000)
        # Splitting 700k off a 1M asset leaves 300k < 400k minimum: abort.
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_bandwidth", {"asset": asset_id, "bandwidth_kbps": 700_000})],
            )
        )
        assert not effects.ok
        # Splitting 100k violates the minimum on the piece itself: abort.
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_bandwidth", {"asset": asset_id, "bandwidth_kbps": 100_000})],
            )
        )
        assert not effects.ok

    def test_fuse_time_restores_asset(self, world):
        asset_id = issue(world)
        ledger = world["ledger"]
        split = ledger.execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_time", {"asset": asset_id, "split_at": 2800})],
            )
        )
        fused = ledger.execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "fuse_time",
                        {"first": split.returns[0]["first"], "second": split.returns[0]["second"]},
                    )
                ],
            )
        )
        assert fused.ok
        restored = ledger.get_object(asset_id)
        assert restored.payload["start"] == 1000 and restored.payload["expiry"] == 4600
        # The fused-away piece is gone.
        assert split.returns[0]["second"] not in ledger.objects

    def test_fuse_nets_negative_gas(self, world):
        asset_id = issue(world)
        ledger = world["ledger"]
        split = ledger.execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "split_time", {"asset": asset_id, "split_at": 2800})],
            )
        )
        fused = ledger.execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "fuse_time",
                        {"first": split.returns[0]["first"], "second": split.returns[0]["second"]},
                    )
                ],
            )
        )
        assert fused.gas.total_sui < 0  # Table 2: fuse_time earns SUI

    def test_fuse_incompatible_rejected(self, world):
        a = issue(world, interface=1)
        b = issue(world, interface=2)
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "fuse_bandwidth", {"first": a, "second": b})],
            )
        )
        assert not effects.ok


class TestRedeem:
    def _pair(self, world):
        ingress = issue(world, interface=1, is_ingress=True)
        egress = issue(world, interface=2, is_ingress=False)
        return ingress, egress

    def test_redeem_wraps_assets(self, world):
        ingress, egress = self._pair(world)
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "redeem",
                        {"ingress": ingress, "egress": egress, "public_key": bytes(256)},
                    )
                ],
            )
        )
        assert effects.ok
        assert ingress not in ledger.objects and egress not in ledger.objects
        request = ledger.get_object(effects.returns[0]["request"])
        assert request.type_tag == REQUEST_TYPE
        assert request.owner == world["as_account"].address  # routed to issuer

    def test_redeem_mismatched_pair_rejected(self, world):
        ingress = issue(world, interface=1, is_ingress=True)
        egress = issue(world, interface=2, is_ingress=False, bandwidth_kbps=500_000)
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "redeem",
                        {"ingress": ingress, "egress": egress, "public_key": bytes(256)},
                    )
                ],
            )
        )
        assert not effects.ok

    def test_redeem_two_ingress_rejected(self, world):
        a = issue(world, interface=1, is_ingress=True)
        b = issue(world, interface=2, is_ingress=True)
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [Command("asset", "redeem", {"ingress": a, "egress": b, "public_key": bytes(256)})],
            )
        )
        assert not effects.ok

    def test_redeem_overlong_duration_rejected(self, world):
        ingress = issue(world, interface=1, is_ingress=True, expiry=1000 + 100_000 * 60 * 60)
        egress = issue(world, interface=2, is_ingress=False, expiry=1000 + 100_000 * 60 * 60)
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "redeem",
                        {"ingress": ingress, "egress": egress, "public_key": bytes(256)},
                    )
                ],
            )
        )
        assert not effects.ok
        assert "ResDuration" in effects.error

    def test_deliver_by_non_issuer_rejected(self, world):
        ingress, egress = self._pair(world)
        ledger = world["ledger"]
        redeemed = ledger.execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "asset",
                        "redeem",
                        {"ingress": ingress, "egress": egress, "public_key": bytes(256)},
                    )
                ],
            )
        )
        request = redeemed.returns[0]["request"]
        effects = ledger.execute(
            Transaction(
                world["buyer"].address,
                [
                    Command(
                        "asset",
                        "deliver_reservation",
                        {"request": request, "kem_share": bytes(256), "ciphertext": b"x", "tag": bytes(16)},
                    )
                ],
            )
        )
        assert not effects.ok


class TestRefuseRedemption:
    """The issuing AS's other answer to a redeem request: the pair goes back."""

    def _requested(self, world) -> str:
        """The buyer buys an ingress/egress pair and redeems it in one go."""
        market = TestMarket()
        marketplace = market._marketplace(world)
        listings = [
            market._list(world, marketplace, issue(world, interface=interface, is_ingress=is_ingress))
            for interface, is_ingress in ((1, True), (2, False))
        ]
        window = {"start": 1600, "expiry": 2200, "bandwidth_kbps": 4_000}
        effects = world["ledger"].execute(
            Transaction(
                world["buyer"].address,
                [
                    *(
                        Command("market", "buy", {"marketplace": marketplace, "listing": listing, "payment": world["coin"], **window})
                        for listing in listings
                    ),
                    Command("asset", "redeem", {"ingress": Result(0, "asset"), "egress": Result(1, "asset"), "public_key": bytes(256)}),
                ],
            )
        )
        assert effects.ok, effects.error
        return effects.returns[2]["request"]

    def _refuse(self, world, sender, request, reason_code="no_capacity"):
        return world["ledger"].execute(
            Transaction(
                sender.address,
                [Command("asset", "refuse_redemption", {"request": request, "reason_code": reason_code})],
            )
        )

    def test_the_issuer_refuses_and_the_redeemer_holds_the_pair_again(self, world):
        ledger, buyer = world["ledger"], world["buyer"].address
        request = self._requested(world)
        wrapped = ledger.get_object(request).payload
        effects = self._refuse(world, world["as_account"], request)
        assert effects.ok, effects.error
        assert request not in ledger.objects
        returned = [ledger.get_object(effects.returns[0][side]) for side in ("ingress", "egress")]
        assert [(asset.type_tag, asset.owner) for asset in returned] == [(ASSET_TYPE, buyer)] * 2
        assert [asset.payload for asset in returned] == [wrapped["ingress"], wrapped["egress"]]
        (event,) = effects.events
        assert (event.event_type, event.payload) == (
            "RedemptionRefused",
            {"request": request, "redeemer": buyer, "reason_code": "no_capacity"},
        )

    def test_only_the_issuer_refuses_and_only_with_a_known_code(self, world):
        request = self._requested(world)
        other_as = Account.generate(world["rng"], "other-as")
        certificate = world["pki"].issue_certificate(IsdAs(1, 43), other_as.signing_key.public)
        proof = other_as.signing_key.sign(other_as.address.encode())
        assert world["ledger"].execute(
            Transaction(
                other_as.address,
                [Command("asset", "register_as", {"certificate": certificate, "signature": proof})],
            )
        ).ok
        for sender, reason_code in (
            (world["buyer"], "no_capacity"),  # the redeemer
            (other_as, "no_capacity"),  # another registered AS
            (world["as_account"], "busy"),  # a code outside REFUSAL_CODES
        ):
            assert not self._refuse(world, sender, request, reason_code).ok
        assert world["ledger"].get_object(request).type_tag == REQUEST_TYPE
        assert self._refuse(world, world["as_account"], request, REFUSAL_CODES[-1]).ok


class TestMarket:
    def _marketplace(self, world):
        ledger = world["ledger"]
        created = ledger.execute(
            Transaction(world["as_account"].address, [Command("market", "create_marketplace", {})])
        )
        marketplace = created.returns[0]["marketplace"]
        ledger.execute(
            Transaction(
                world["as_account"].address,
                [Command("market", "register_seller", {"marketplace": marketplace})],
            )
        )
        return marketplace

    def _list(self, world, marketplace, asset_id, price=50):
        effects = world["ledger"].execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "market",
                        "create_listing",
                        {
                            "marketplace": marketplace,
                            "asset": asset_id,
                            "price_micromist_per_unit": price,
                        },
                    )
                ],
            )
        )
        assert effects.ok, effects.error
        return effects.returns[0]["listing"]

    def test_unregistered_seller_rejected(self, world):
        ledger = world["ledger"]
        created = ledger.execute(
            Transaction(world["buyer"].address, [Command("market", "create_marketplace", {})])
        )
        marketplace = created.returns[0]["marketplace"]
        asset_id = issue(world)
        effects = ledger.execute(
            Transaction(
                world["as_account"].address,
                [
                    Command(
                        "market",
                        "create_listing",
                        {"marketplace": marketplace, "asset": asset_id, "price_micromist_per_unit": 1},
                    )
                ],
            )
        )
        assert not effects.ok

    def test_buy_full_asset_deletes_listing(self, world):
        marketplace = self._marketplace(world)
        asset_id = issue(world)
        listing = self._list(world, marketplace, asset_id)
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["buyer"].address,
                [
                    Command(
                        "market",
                        "buy",
                        {
                            "marketplace": marketplace,
                            "listing": listing,
                            "start": 1000,
                            "expiry": 4600,
                            "bandwidth_kbps": 1_000_000,
                            "payment": world["coin"],
                        },
                    )
                ],
            )
        )
        assert effects.ok, effects.error
        assert listing not in ledger.objects
        bought = ledger.get_object(effects.returns[0]["asset"])
        assert bought.owner == world["buyer"].address

    def test_buy_with_worst_case_split(self, world):
        marketplace = self._marketplace(world)
        asset_id = issue(world)
        listing = self._list(world, marketplace, asset_id)
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["buyer"].address,
                [
                    Command(
                        "market",
                        "buy",
                        {
                            "marketplace": marketplace,
                            "listing": listing,
                            "start": 1600,
                            "expiry": 2200,
                            "bandwidth_kbps": 4_000,
                            "payment": world["coin"],
                        },
                    )
                ],
            )
        )
        assert effects.ok, effects.error
        bought = ledger.get_object(effects.returns[0]["asset"])
        assert bought.payload["start"] == 1600
        assert bought.payload["expiry"] == 2200
        assert bought.payload["bandwidth_kbps"] == 4_000
        # Remainders stay on the market: original listing + 2 new ones.
        listings = [o for o in ledger.objects.values() if o.type_tag == LISTING_TYPE]
        assert len(listings) == 3
        total_units = sum(
            ledger.get_object(l.payload["asset"]).payload["bandwidth_kbps"]
            * (
                ledger.get_object(l.payload["asset"]).payload["expiry"]
                - ledger.get_object(l.payload["asset"]).payload["start"]
            )
            for l in listings
        ) + bought.payload["bandwidth_kbps"] * 600
        assert total_units == 1_000_000 * 3600  # volume conserved

    def test_payment_flows_to_seller(self, world):
        marketplace = self._marketplace(world)
        asset_id = issue(world)
        listing = self._list(world, marketplace, asset_id, price=1_000_000)
        ledger = world["ledger"]
        seller_before = coin_balance(ledger, world["as_account"].address)
        buyer_before = coin_balance(ledger, world["buyer"].address)
        effects = ledger.execute(
            Transaction(
                world["buyer"].address,
                [
                    Command(
                        "market",
                        "buy",
                        {
                            "marketplace": marketplace,
                            "listing": listing,
                            "start": 1000,
                            "expiry": 1060,
                            "bandwidth_kbps": 1000,
                            "payment": world["coin"],
                        },
                    )
                ],
            )
        )
        price = effects.returns[0]["price_mist"]
        assert price == 1000 * 60  # units * 1 MIST per unit
        assert coin_balance(ledger, world["as_account"].address) == seller_before + price
        assert coin_balance(ledger, world["buyer"].address) == buyer_before - price

    def test_insufficient_payment_rejected(self, world):
        marketplace = self._marketplace(world)
        asset_id = issue(world)
        listing = self._list(world, marketplace, asset_id, price=10**12)
        effects = world["ledger"].execute(
            Transaction(
                world["buyer"].address,
                [
                    Command(
                        "market",
                        "buy",
                        {
                            "marketplace": marketplace,
                            "listing": listing,
                            "start": 1000,
                            "expiry": 4600,
                            "bandwidth_kbps": 1_000_000,
                            "payment": world["coin"],
                        },
                    )
                ],
            )
        )
        assert not effects.ok
        assert "insufficient" in effects.error

    def test_cancel_listing_returns_asset(self, world):
        marketplace = self._marketplace(world)
        asset_id = issue(world)
        listing = self._list(world, marketplace, asset_id)
        ledger = world["ledger"]
        effects = ledger.execute(
            Transaction(
                world["as_account"].address,
                [Command("market", "cancel_listing", {"marketplace": marketplace, "listing": listing})],
            )
        )
        assert effects.ok
        assert ledger.get_object(asset_id).owner == world["as_account"].address

    def test_atomic_buy_and_redeem_in_one_transaction(self, world):
        marketplace = self._marketplace(world)
        ingress_asset = issue(world, interface=1, is_ingress=True)
        egress_asset = issue(world, interface=2, is_ingress=False)
        ingress_listing = self._list(world, marketplace, ingress_asset)
        egress_listing = self._list(world, marketplace, egress_asset)
        window = {"start": 1600, "expiry": 2200, "bandwidth_kbps": 4_000}
        effects = world["ledger"].execute(
            Transaction(
                world["buyer"].address,
                [
                    Command("market", "buy", {"marketplace": marketplace, "listing": ingress_listing, "payment": world["coin"], **window}),
                    Command("market", "buy", {"marketplace": marketplace, "listing": egress_listing, "payment": world["coin"], **window}),
                    Command("asset", "redeem", {"ingress": Result(0, "asset"), "egress": Result(1, "asset"), "public_key": bytes(256)}),
                ],
            )
        )
        assert effects.ok, effects.error
        assert effects.touches_shared  # marketplace involved -> consensus path
