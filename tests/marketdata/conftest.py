"""Shared harness: a minimal seller-driven market without a full deployment."""

import random

import pytest

from repro.contracts.asset import AssetContract
from repro.contracts.coin import CoinContract
from repro.contracts.market import MarketContract
from repro.controlplane.pki import CpPki
from repro.ledger.accounts import Account, sui_to_mist
from repro.ledger.chain import Ledger
from repro.ledger.transactions import Command, Transaction
from repro.scion.addresses import IsdAs


class RawMarket:
    """One seller AS, one buyer, one marketplace, driven by raw transactions."""

    def __init__(self, seed: int = 99, isd_as: IsdAs = IsdAs(1, 9)) -> None:
        rng = random.Random(seed)
        pki = CpPki(rng)
        self.isd_as = isd_as
        self.ledger = Ledger()
        self.ledger.register_contract(CoinContract())
        self.ledger.register_contract(AssetContract(pki))
        self.ledger.register_contract(MarketContract())
        self.seller = Account.generate(rng, "seller")
        self.buyer = Account.generate(rng, "buyer")
        cert = pki.issue_certificate(isd_as, self.seller.signing_key.public)
        proof = self.seller.signing_key.sign(self.seller.address.encode())
        self.token = self.run(
            self.seller, "asset", "register_as",
            certificate=cert, signature=proof,
        ).returns[0]["token"]
        self.coin = self.run(
            self.buyer, "coin", "mint", amount=sui_to_mist(1000)
        ).returns[0]["coin"]
        self.marketplace = self.run(
            self.seller, "market", "create_marketplace"
        ).returns[0]["marketplace"]
        self.run(self.seller, "market", "register_seller", marketplace=self.marketplace)

    def run(self, account, contract, function, **args):
        effects = self.try_run(account, contract, function, **args)
        assert effects.ok, f"{function}: {effects.error}"
        return effects

    def try_run(self, account, contract, function, **args):
        return self.ledger.execute(
            Transaction(account.address, [Command(contract, function, args)])
        )

    def issue_and_list(
        self,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        price: int = 50,
        granularity: int = 60,
        min_bandwidth_kbps: int = 100,
    ) -> str:
        asset = self.run(
            self.seller, "asset", "issue",
            token=self.token, bandwidth_kbps=bandwidth_kbps, start=start,
            expiry=expiry, interface=interface, is_ingress=is_ingress,
            granularity=granularity, min_bandwidth_kbps=min_bandwidth_kbps,
        ).returns[0]["asset"]
        return self.run(
            self.seller, "market", "create_listing",
            marketplace=self.marketplace, asset=asset,
            price_micromist_per_unit=price,
        ).returns[0]["listing"]

    def buy(self, listing: str, start: int, expiry: int, bandwidth_kbps: int):
        return self.try_run(
            self.buyer, "market", "buy",
            marketplace=self.marketplace, listing=listing,
            start=start, expiry=expiry, bandwidth_kbps=bandwidth_kbps,
            payment=self.coin,
        )

    def cancel(self, listing: str):
        return self.try_run(
            self.seller, "market", "cancel_listing",
            marketplace=self.marketplace, listing=listing,
        )


@pytest.fixture()
def raw_market():
    return RawMarket()
