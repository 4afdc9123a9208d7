"""Security analysis (§5): adversarial behaviours against both planes.

Each test is one row of the paper's analysis: the attack, the defender's
mechanism, and the guaranteed outcome (C1/C2 on the control plane, D1/D2 on
the data plane).
"""

import math
import re
from copy import deepcopy

import pytest

from tests.conftest import BLAKE2, T0, addresses, grant_full_path, walk_path

from repro.clock import SimClock
from repro.hummingbird import (
    DuplicateFilter,
    FlyoverReservation,
    HummingbirdRouter,
    HummingbirdSource,
    ResInfo,
)
from repro.hummingbird.mac import TAG_LEN
from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.router import Action


def router_for(topology, isd_as, clock, duplicate_filter=None):
    return HummingbirdRouter(
        topology.as_of(isd_as), clock, BLAKE2, duplicate_filter=duplicate_filter
    )


class TestOveruseProtectionD1:
    def test_spoofed_reservation_dropped(self, chain3, clock):
        """A reservation invented out of thin air fails authentication."""
        topology, path = chain3
        from repro.crypto.keys import SecretValue
        from repro.hummingbird.reservation import grant_reservation
        from repro.scion.paths import as_crossings

        crossings = as_crossings(path)
        forged = [
            grant_reservation(
                crossing.isd_as,
                SecretValue.from_seed("attacker guess"),  # not the AS's SV
                ResInfo(
                    ingress=crossing.ingress, egress=crossing.egress, res_id=7,
                    bw_cls=500, start=T0 - 5, duration=600,
                ),
                BLAKE2,
            )
            for crossing in crossings
        ]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, forged, clock, BLAKE2)
        decision = router_for(topology, path.src, clock).process(
            source.build_packet(b"x"), 0
        )
        assert decision.action is Action.DROP

    def test_pre_start_use_via_lying_dropped(self, chain3, clock):
        """Claiming an earlier ResStart changes the derived key: drop."""
        topology, path = chain3
        real = grant_full_path(topology, path, start=T0 + 500)
        lied = [
            FlyoverReservation(
                isd_as=r.isd_as,
                resinfo=ResInfo(
                    ingress=r.resinfo.ingress, egress=r.resinfo.egress,
                    res_id=r.resinfo.res_id, bw_cls=r.resinfo.bw_cls,
                    start=T0 - 1, duration=r.resinfo.duration,
                ),
                auth_key=r.auth_key,
            )
            for r in real
        ]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, lied, clock, BLAKE2)
        decision = router_for(topology, path.src, clock).process(
            source.build_packet(b"x"), 0
        )
        assert decision.action is Action.DROP

    def test_post_expiry_use_demoted(self, chain3):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0, duration=60)
        clock = SimClock(float(T0 + 61))
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = router_for(topology, path.src, clock)
        decision = router.process(source.build_packet(b"x"), 0)
        assert decision.action is Action.FORWARD  # best effort, not priority
        assert router.stats.demoted_inactive == 1

    def test_claiming_more_bandwidth_dropped(self, chain3, clock):
        """Inflating the BW class in the header invalidates the key."""
        topology, path = chain3
        real = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000)
        inflated = [
            FlyoverReservation(
                isd_as=r.isd_as,
                resinfo=ResInfo(
                    ingress=r.resinfo.ingress, egress=r.resinfo.egress,
                    res_id=r.resinfo.res_id, bw_cls=1023,  # claim ~64 Tbps
                    start=r.resinfo.start, duration=r.resinfo.duration,
                ),
                auth_key=r.auth_key,
            )
            for r in real
        ]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, inflated, clock, BLAKE2)
        decision = router_for(topology, path.src, clock).process(
            source.build_packet(b"x"), 0
        )
        assert decision.action is Action.DROP

    def test_packet_length_is_authenticated(self, chain3, clock):
        """Shrinking len(pkt) after MAC computation is detected."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"y" * 500)
        packet.payload = packet.payload[:100]  # lie about consumed bandwidth
        decision = router_for(topology, path.src, clock).process(packet, 0)
        assert decision.action is Action.DROP


class TestQosD2:
    def test_reservation_stealing_blocked_by_dst_binding(self, chain3, clock):
        """§5.4: redirecting a stolen packet to another AS breaks the tag."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        stolen = source.build_packet(b"z" * 100)
        stolen.dst = ScionAddr(IsdAs(1, 999), stolen.dst.host)
        decision = router_for(topology, path.src, clock).process(stolen, 0)
        assert decision.action is Action.DROP

    def test_on_reservation_set_replay_without_suppression(self, chain3, clock):
        """Fig. 3: a shared reservation can be drained by replays..."""
        topology, path = chain3
        reservations = grant_full_path(
            topology, path, start=T0 - 5, bandwidth_kbps=1000
        )
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = router_for(topology, path.src, clock)
        original = source.build_packet(b"v" * 400)
        assert router.process(deepcopy(original), 0).action is Action.FORWARD_PRIORITY
        # The adversary replays the observed packet to exhaust the bucket
        # (the 50 ms burst budget at 1 Mbps is ~6250 B, ~11 packets)...
        for _ in range(25):
            router.process(deepcopy(original), 0)
        # ...and the victim's next legitimate packet is demoted.
        victim_next = source.build_packet(b"v" * 400)
        assert router.process(victim_next, 0).action is Action.FORWARD

    def test_mitigation_separate_reservations_per_path(self, chain3, clock):
        """§5.4 mitigation: per-path reservations are replay-isolated."""
        topology, path = chain3
        path_a = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000, res_id_base=0)
        path_b = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000, res_id_base=10)
        src, dst = addresses(path)
        source_a = HummingbirdSource(src, dst, path, path_a, clock, BLAKE2)
        source_b = HummingbirdSource(src, dst, path, path_b, clock, BLAKE2)
        router = router_for(topology, path.src, clock)
        observed = source_a.build_packet(b"v" * 400)
        for _ in range(12):  # adversary drains reservation A via replays
            router.process(deepcopy(observed), 0)
        # Path B's reservation is untouched.
        decision = router.process(source_b.build_packet(b"v" * 400), 0)
        assert decision.action is Action.FORWARD_PRIORITY

    def test_mitigation_incremental_duplicate_suppression(self, chain3, clock):
        """§5.4: an AS may deploy duplicate suppression unilaterally."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = router_for(
            topology, path.src, clock, duplicate_filter=DuplicateFilter()
        )
        observed = source.build_packet(b"v" * 400)
        assert router.process(deepcopy(observed), 0).action is Action.FORWARD_PRIORITY
        for _ in range(12):
            replay = router.process(deepcopy(observed), 0)
            assert replay.action is Action.FORWARD  # demoted, bucket untouched
        fresh = source.build_packet(b"v" * 400)
        assert router.process(fresh, 0).action is Action.FORWARD_PRIORITY


class TestBruteForceEconomics:
    def test_online_attack_expectation(self):
        """§5.4: 6-byte tags need >140 trillion packets per success."""
        expected_packets = 2 ** (8 * TAG_LEN) / 2
        assert expected_packets > 140e12

    def test_offline_attack_not_possible_without_key(self, chain3, clock):
        """Tag validity is only observable through the router (online)."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x")
        router = router_for(topology, path.src, clock)
        # A wrong tag and a right tag are indistinguishable except by the
        # router's forwarding behaviour (drop vs priority).
        tampered = deepcopy(packet)
        hop = tampered.path.segments[0].hopfields[0]
        hop.mac = bytes(b ^ 1 for b in hop.mac)
        assert router.process(tampered, 0).action is Action.DROP
        assert router.process(packet, 0).action is Action.FORWARD_PRIORITY


class TestEconomicFairnessC2:
    def test_sybil_accounts_pay_the_same_total(self, deployment3):
        """C2: N accounts buying N slices pay what 1 account pays for N."""
        from repro.marketdata import PathSpec
        from repro.scion.beaconing import run_beaconing
        from repro.scion.paths import PathLookup, as_crossings

        deployment = deployment3
        topology = deployment.topology
        store = run_beaconing(topology, timestamp=T0)
        path = PathLookup(store).find_paths(
            topology.ases[2].isd_as, topology.ases[0].isd_as
        )[0]
        crossing = as_crossings(path)[1]
        # Stay well inside the deployed assets' one-hour window.
        start = int(deployment.clock.now()) + 120
        start -= start % 60

        single = deployment.new_host(funding_sui=100)
        plan = single.plan_path(
            deployment.marketplace,
            PathSpec([crossing], start, start + 240, 4000),
        )
        single_price = plan.price_mist

        sybil_total = 0
        for i in range(4):
            sybil = deployment.new_host(funding_sui=100)
            plan = sybil.plan_path(
                deployment.marketplace,
                PathSpec(
                    [crossing], start + 240 * (i + 1), start + 240 * (i + 2), 1000
                ),
            )
            sybil_total += plan.price_mist
        # 4 x (1000 kbps x 240 s) == 1 x (4000 kbps x 240 s): same volume,
        # same cost — splitting across accounts buys nothing.
        assert sybil_total == single_price

    def test_starving_requires_buying_the_bandwidth(self, deployment3):
        """C2: denying others the hop means paying for the whole hop."""
        from repro.contracts.asset import asset_units
        from repro.contracts.market import LISTING_TYPE, MICROMIST

        deployment = deployment3
        ledger = deployment.ledger
        # The cost of making one interface unavailable = sum of list prices
        # of every remaining listed rectangle on it: linear in the volume.
        total_cost = 0
        for obj in ledger.objects.values():
            if obj.type_tag != LISTING_TYPE:
                continue
            asset = ledger.objects.get(obj.payload["asset"])
            if asset is None:
                continue
            total_cost += (
                asset_units(asset.payload)
                * obj.payload["price_micromist_per_unit"]
                // MICROMIST
            )
        assert total_cost > 0


class TestHostileRedeemKeyC1:
    """C1: a redeem request is attacker-controlled input to the AS.

    With Diffie-Hellman exponents shorter than ``p`` a key outside ``[2, p-2]`` would
    confine the shared secret to a set the sender can enumerate, so the AS
    must refuse it — before it claims anything, and without letting the
    refusal abort the poll the request arrived in.
    """

    @staticmethod
    def _buy_and_redeem(deployment, host, crossing, start, public_key: bytes):
        """What ``HostClient.atomic_buy_and_redeem`` submits, with the
        redeemer's key chosen by the attacker."""
        from repro.ledger.transactions import Command, Result, Transaction
        from repro.marketdata import PathSpec

        plan = host.plan_path(
            deployment.marketplace,
            PathSpec([crossing], start, start + 600, 1000),
        )
        (hop,) = plan.hops
        buys = [
            Command(
                "market",
                "buy",
                {
                    "marketplace": deployment.marketplace,
                    "listing": listing,
                    "start": hop.start,
                    "expiry": hop.expiry,
                    "bandwidth_kbps": 1000,
                    "payment": host.payment_coin,
                },
            )
            for listing in (
                hop.ingress_candidate.listing.listing_id,
                hop.egress_candidate.listing.listing_id,
            )
        ]
        redeem = Command(
            "asset",
            "redeem",
            {"ingress": Result(0, "asset"), "egress": Result(1, "asset"), "public_key": public_key},
        )
        submitted = host.executor.submit(
            Transaction(sender=host.account.address, commands=[*buys, redeem])
        )
        assert submitted.effects.ok, submitted.effects.error
        return submitted.effects.returns[2]["request"]

    def test_bad_keys_are_refused_before_any_claim_and_the_poll_goes_on(self):
        from types import SimpleNamespace

        from repro.controlplane import deploy_market
        from repro.crypto.sealing import MODP_P
        from repro.marketdata import PathSpec
        from tests.fingerprint import calendar_fingerprint
        from repro.scion.topology import linear_topology

        topology = linear_topology(3)
        deployment = deploy_market(
            topology, clock=SimClock(float(T0)), asset_duration=14_400
        )
        middle = topology.ases[1]
        service = deployment.service(middle.isd_as)
        first_if, second_if = sorted(middle.interfaces)
        # The hostile requests cross the AS one way, the honest one the
        # other way: they name disjoint calendars, so "nothing claimed" is
        # an exact statement about the hostile direction's calendars.
        hostile = SimpleNamespace(isd_as=middle.isd_as, ingress=first_if, egress=second_if)
        honest = SimpleNamespace(isd_as=middle.isd_as, ingress=second_if, egress=first_if)
        bad_keys = [  # 0, 1, p-1, an integer far above p, and wrong lengths
            bytes(256),
            (1).to_bytes(256, "big"),
            (MODP_P - 1).to_bytes(256, "big"),
            b"\xff" * 300,
            b"",
            (3).to_bytes(255, "big"),  # in range: only its length is wrong
            (3).to_bytes(257, "big"),
        ]

        attacker = deployment.new_host(funding_sui=100)
        start = T0 + 3600
        refused = [
            self._buy_and_redeem(deployment, attacker, hostile, start + 600 * index, key)
            for index, key in enumerate(bad_keys)
        ]
        victim = deployment.new_host(funding_sui=100)
        bought = victim.atomic_buy_and_redeem(
            deployment.marketplace,
            victim.plan_path(
                deployment.marketplace,
                PathSpec([honest], start, start + 600, 1000),
            ),
        )
        served = bought.effects.returns[2]["request"]

        claimed = [
            service.admission.calendar(hostile.ingress, True, "active"),
            service.admission.calendar(hostile.egress, False, "active"),
        ]
        before = [calendar_fingerprint(calendar) for calendar in claimed]

        records = service.poll_and_deliver()

        assert [(record.request_id, record.reason_code) for record in records] == [
            *((request, "bad_key") for request in refused),
            (served, None),
        ]
        assert len(victim.collect_reservations()) == 1
        assert [calendar_fingerprint(calendar) for calendar in claimed] == before
        # the refused requests gave the attacker its pairs back; nothing is
        # left to retry on the next poll
        assert attacker.collect_reservations() == []
        assert attacker.refused == dict.fromkeys(refused, "bad_key")
        assert len(attacker.owned_assets()) == 2 * len(refused)
        assert service.poll_and_deliver() == []


class TestHostileRegistration:
    """``register_as`` hands a transaction-supplied certificate dict to the
    trust anchor's check.  (The proof's hostile table, run against both
    ``verify`` and ``register_as``, is in ``tests/crypto/test_signatures.py``.)

    Every case below is the strongest position an attacker can take — a
    *valid* certificate, replayed from an earlier transaction, sent from the
    very address it was proven for, with one field malformed.  Each must end
    as an aborted transaction with its reason, never as an exception out of
    the executor, and change nothing; the honest registration that follows
    on the same ledger must go through.
    """

    @pytest.fixture
    def world(self):
        import random
        from types import SimpleNamespace

        from repro.contracts.asset import AssetContract
        from repro.controlplane.pki import CpPki
        from repro.ledger.accounts import Account
        from repro.ledger.chain import Ledger
        from repro.ledger.committee import Committee
        from repro.ledger.executor import LedgerExecutor

        rng = random.Random(31)
        pki = CpPki(rng)
        ledger = Ledger()
        ledger.register_contract(AssetContract(pki))
        account = Account.generate(rng, "as")
        return SimpleNamespace(
            ledger=ledger,
            executor=LedgerExecutor(ledger, Committee(random.Random(31))),
            account=account,
            certificate=pki.issue_certificate(IsdAs(1, 42), account.signing_key.public),
            proof=account.signing_key.sign(account.address.encode()),
        )

    @staticmethod
    def _register(world, certificate, signature):
        from repro.ledger.transactions import Command, Transaction

        args = {"certificate": certificate, "signature": signature}
        return world.executor.submit(
            Transaction(world.account.address, [Command("asset", "register_as", args)])
        ).effects

    @pytest.mark.parametrize(
        "malform",
        [
            lambda cert: {**cert, "isd": 70_000},  # OverflowError out of to_bytes(2)
            lambda cert: {**cert, "asn": -1},
            lambda cert: {**cert, "asn": 1 << 48},
            lambda cert: {**cert, "isd": "1"},  # AttributeError: str has no to_bytes
            lambda cert: {**cert, "asn": 42.0},
            lambda cert: {**cert, "public_key": cert["public_key"].hex()},
            lambda cert: {**cert, "public_key": cert["public_key"][1:]},
            lambda cert: {**cert, "signature": int.from_bytes(cert["signature"], "big")},
            lambda cert: {**cert, "signature": b"\xff" * 300},
            lambda cert: {**cert, "signature": [1, 2, 300]},
            lambda cert: {key: value for key, value in cert.items() if key != "signature"},
            lambda cert: list(cert.values()),
            lambda cert: None,
        ],
        ids=[
            "isd=70000", "asn=-1", "asn=2^48", "isd=str", "asn=float", "key=str", "key=short",
            "sig=int", "sig=300B", "sig=list", "sig=missing", "cert=list", "cert=None",
        ],
    )
    def test_malformed_certificate(self, world, malform):
        ledger = world.ledger
        before = (dict(ledger.objects), list(ledger.events))
        effects = self._register(world, malform(world.certificate), world.proof)
        assert effects.status == "abort" and effects.error == "invalid AS certificate"
        assert effects.created == effects.mutated == effects.deleted == effects.events == []
        assert (dict(ledger.objects), list(ledger.events)) == before

        honest = self._register(world, world.certificate, world.proof)
        assert honest.ok, honest.error
        token = ledger.objects[honest.returns[0]["token"]]
        assert token.payload["as_address"] == world.account.address


class TestTrustAnchor:
    """The CP-PKI trust anchor (§3.2) certifies ASes and takes no part in the
    market.  Were its key any account's — the market operator's, an AS's, a
    host's — that account could certify an AS of its own choosing, sell its
    bandwidth and answer its redeem requests."""

    def test_no_account_of_a_deployment_can_certify_an_as(self, monkeypatch):
        from repro.controlplane import deploy_market
        from repro.controlplane.pki import _cert_message
        from repro.ledger.accounts import Account
        from repro.ledger.transactions import Command, Transaction
        from repro.netsim import linear_path

        accounts = []
        generate = Account.generate

        def recording(rng, name=""):
            accounts.append(generate(rng, name))
            return accounts[-1]

        monkeypatch.setattr(Account, "generate", staticmethod(recording))
        topology, _ = linear_path(3)
        deployment = deploy_market(topology, clock=SimClock(float(T0)), seed=7)
        deployment.new_host(name="host")
        assert [account.name for account in accounts] == [
            "market-operator", *(f"as-{system.isd_as}" for system in topology.ases), "host"
        ]
        pki = deployment.service(topology.ases[0].isd_as).pki
        ledger, forged_as = deployment.ledger, IsdAs(1, 999)

        for account in accounts:
            key = account.signing_key
            certificate = {
                "isd": forged_as.isd,
                "asn": forged_as.asn,
                "public_key": key.public,
                "signature": key.sign(_cert_message(forged_as.isd, forged_as.asn, key.public)),
            }
            assert not pki.verify_certificate(certificate), account.name
            before = (dict(ledger.objects), list(ledger.events))
            args = {"certificate": certificate, "signature": key.sign(account.address.encode())}
            effects = deployment.executor.submit(
                Transaction(account.address, [Command("asset", "register_as", args)])
            ).effects
            assert effects.status == "abort", account.name
            assert effects.error == "invalid AS certificate", account.name
            assert (dict(ledger.objects), list(ledger.events)) == before


class TestHostileTransaction:
    """A transaction's function names and argument dicts are the sender's.

    Before this class ``Contract.dispatch`` called ``handler(ctx, **args)``
    unchecked and ``Ledger.execute`` caught only ``ContractAbort`` /
    ``ValueError``: a misspelled, missing or mistyped argument — or the name of
    a base-class method — left ``LedgerExecutor.submit`` as a ``TypeError`` and
    took down whatever poller sat above it.  Each shape must end as an abort
    naming the function and the offending argument, pay computation gas like
    any abort, change nothing, and leave the ledger serving the next sender.
    """

    @pytest.fixture
    def world(self):
        import random
        from types import SimpleNamespace

        from repro.contracts.coin import CoinContract
        from repro.ledger.chain import Ledger
        from repro.ledger.committee import Committee
        from repro.ledger.executor import LedgerExecutor

        ledger = Ledger()
        ledger.register_contract(CoinContract())
        executor = LedgerExecutor(ledger, Committee(random.Random(0)))
        return SimpleNamespace(ledger=ledger, executor=executor)

    @pytest.mark.parametrize(
        "function, args, reason",
        [
            ("mint", {"amnt": 5}, r"coin\.mint\(amnt=int\): .*unexpected keyword argument 'amnt'"),
            ("mint", {}, r"coin\.mint\(\): .*missing 1 required positional argument: 'amount'"),
            ("mint", {"amount": 5, "to": "me"}, r"coin\.mint\(amount=int, to=str\): .*'to'"),
            ("mint", {"amount": "x"}, r"coin\.mint\(amount=str\): "),
            ("mint", {"amount": None}, r"coin\.mint\(amount=NoneType\): "),
            ("mint", {5: 5}, r"coin\.mint\(5=int\): .*keywords must be strings"),
            ("mint", [("amount", 5)], r"command arguments must be a dict, not list"),
            ("dispatch", {"function": "mint", "args": {"amount": 5}}, r"coin has no function 'dispatch'"),
            ("name", {}, r"coin has no function 'name'"),
            ("__init__", {}, r"function '__init__' is private"),
        ],
        ids=[
            "misspelled", "missing", "extra", "str", "None", "int-key", "args=list",
            "base-class-method", "attribute", "dunder",
        ],
    )
    def test_a_malformed_call_is_the_senders_abort(self, world, function, args, reason):
        import re

        from repro.ledger.transactions import Command, Transaction

        ledger = world.ledger
        honest = Command("coin", "mint", {"amount": 7})
        funded = world.executor.submit(Transaction("alice", [honest])).effects
        before = (dict(ledger.objects), list(ledger.events), ledger.checkpoint)

        # the hostile command comes second: the honest mint before it must roll back too
        effects = world.executor.submit(
            Transaction("mallory", [honest, Command("coin", function, args)])
        ).effects
        assert effects.status == "abort" and re.search(reason, effects.error), effects.error
        assert effects.created == effects.mutated == effects.deleted == effects.events == []
        assert effects.gas.total_sui > 0 and effects.gas.storage_cost == 0
        assert (dict(ledger.objects), list(ledger.events)) == before[:2]
        assert ledger.checkpoint == before[2] + 1

        again = world.executor.submit(Transaction("alice", [honest])).effects
        assert again.ok and again.gas.total_sui == funded.gas.total_sui
        assert ledger.objects[again.returns[0]["coin"]].payload == {"balance": 7}

    @pytest.fixture
    def market(self):
        """A seller with two unlisted assets, a listing, an open window
        auction and an open two-leg path auction, and mallory with a funded
        coin: every numeric entry point has an honest call one argument away
        from the hostile one."""
        import random
        from types import SimpleNamespace

        from repro.contracts.asset import AssetContract
        from repro.contracts.coin import CoinContract
        from repro.contracts.market import MarketContract
        from repro.controlplane.pki import CpPki
        from repro.ledger.accounts import Account
        from repro.ledger.chain import Ledger
        from repro.ledger.committee import Committee
        from repro.ledger.executor import LedgerExecutor
        from repro.ledger.transactions import Command, Transaction

        rng = random.Random(22)
        pki = CpPki(rng)
        ledger = Ledger()
        for contract in (CoinContract(), AssetContract(pki), MarketContract()):
            ledger.register_contract(contract)
        executor = LedgerExecutor(ledger, Committee(random.Random(22)))
        seller = Account.generate(rng, "seller")

        def run(sender, contract, function, **args):
            effects = executor.submit(
                Transaction(sender, [Command(contract, function, args)])
            ).effects
            assert effects.ok, effects.error
            return effects.returns[0]

        token = run(
            seller.address, "asset", "register_as",
            certificate=pki.issue_certificate(IsdAs(1, 7), seller.signing_key.public),
            signature=seller.signing_key.sign(seller.address.encode()),
        )["token"]
        marketplace = run(seller.address, "market", "create_marketplace")["marketplace"]
        run(seller.address, "market", "register_seller", marketplace=marketplace)

        def issue(interface):
            return run(
                seller.address, "asset", "issue", token=token, bandwidth_kbps=1000,
                start=0, expiry=600, interface=interface, is_ingress=True,
                granularity=60, min_bandwidth_kbps=100,
            )["asset"]

        listing = run(
            seller.address, "market", "create_listing", marketplace=marketplace,
            asset=issue(1), price_micromist_per_unit=50,
        )["listing"]
        auction = run(
            seller.address, "market", "create_auction", marketplace=marketplace,
            asset=issue(2), reserve_micromist_per_unit=20,
        )["auction"]
        path_auction = run(
            seller.address, "market", "create_path_auction",
            marketplace=marketplace, num_legs=2,
        )["path_auction"]
        for leg in range(2):
            run(
                seller.address, "market", "contribute_path_leg", marketplace=marketplace,
                path_auction=path_auction, leg_index=leg, asset=issue(3 + leg),
                reserve_micromist_per_unit=20,
            )
        coin = run("mallory", "coin", "mint", amount=10**9)["coin"]
        common = {"marketplace": marketplace}
        bid = {**common, "bandwidth_kbps": 400, "price_micromist_per_unit": 60, "payment": coin}
        return SimpleNamespace(
            ledger=ledger,
            executor=executor,
            # entry point -> (sender, honest arguments, the numeric one to poison)
            calls={
                "coin.mint": ("mallory", {"amount": 5}, "amount"),
                "asset.split_time": (
                    seller.address, {"asset": issue(5), "split_at": 300}, "split_at"
                ),
                "asset.split_bandwidth": (
                    seller.address, {"asset": issue(6), "bandwidth_kbps": 400},
                    "bandwidth_kbps",
                ),
                "market.buy": (
                    "mallory",
                    {**common, "listing": listing, "start": 0, "expiry": 60,
                     "bandwidth_kbps": 400, "payment": coin},
                    "bandwidth_kbps",
                ),
                "market.place_bid": (
                    "mallory", {**bid, "auction": auction}, "price_micromist_per_unit"
                ),
                "market.place_path_bid": (
                    "mallory", {**bid, "path_auction": path_auction}, "bandwidth_kbps"
                ),
                "market.settle_auction": (
                    seller.address, {**common, "auction": auction, "supply_kbps": 500},
                    "supply_kbps",
                ),
            },
        )

    @pytest.mark.parametrize(
        "hostile",
        [0.5, 60.0, float("inf"), float("nan"), True, 1 << 100_000],
        ids=["half", "float", "inf", "nan", "bool", "int-10^5-bits"],
    )
    @pytest.mark.parametrize(
        "entry",
        ["coin.mint", "asset.split_time", "asset.split_bandwidth", "market.buy",
         "market.place_bid", "market.place_path_bid", "market.settle_auction"],
    )
    def test_a_number_is_an_int_or_the_senders_abort(self, market, entry, hostile):
        """A numeric argument is the sender's choice too.  Before the check in
        ``Contract.dispatch``, ``inf`` left ``submit`` as an ``OverflowError``,
        a coin split of half a MIST *succeeded* and destroyed it, a 1000.5 kbps
        bid was stored as 1000 and escrowed for 1000.5, and ``True`` was one
        MIST.  An ``int`` however large is still an ``int``: it may be
        served or refused on its merits, in work that does not grow faster
        than the number itself."""
        from repro.ledger.transactions import Command, Transaction

        ledger = market.ledger
        sender, honest_args, poisoned = market.calls[entry]
        contract, function = entry.split(".")
        honest = Command("coin", "mint", {"amount": 7})
        before = (dict(ledger.objects), list(ledger.events), ledger.checkpoint)
        payloads = {key: repr(obj.payload) for key, obj in ledger.objects.items()}

        # the hostile command comes second: the honest mint before it must roll back too
        effects = market.executor.submit(
            Transaction(
                sender,
                [honest, Command(contract, function, {**honest_args, poisoned: hostile})],
            )
        ).effects
        if type(hostile) is int and effects.ok:
            return  # an honest giant: coin.mint is a faucet
        assert effects.status == "abort", effects
        if type(hostile) is not int:
            assert re.fullmatch(
                rf"{contract}\.{function}\(.*{poisoned}={type(hostile).__name__}.*\): "
                rf"'{poisoned}' must be int( \| None)?",
                effects.error,
            ), effects.error
        assert effects.created == effects.mutated == effects.deleted == effects.events == []
        assert effects.gas.total_sui > 0 and effects.gas.storage_cost == 0
        assert (dict(ledger.objects), list(ledger.events)) == before[:2]
        assert {key: repr(obj.payload) for key, obj in ledger.objects.items()} == payloads
        assert ledger.checkpoint == before[2] + 1

        # the same sender's honest call is served next
        again = market.executor.submit(
            Transaction(sender, [honest, Command(contract, function, honest_args)])
        ).effects
        assert again.ok, again.error

    def test_every_entry_point_spells_its_annotations_as_the_check_reads_them(self):
        """``dispatch`` looks a parameter's annotation up as a string."""
        import inspect

        from repro.contracts.asset import AssetContract
        from repro.contracts.coin import CoinContract
        from repro.contracts.market import MarketContract
        from repro.ledger.runtime import _INTEGER

        checked = 0
        for contract in (CoinContract, AssetContract, MarketContract):
            for name, handler in vars(contract).items():
                if name.startswith("_") or not inspect.isfunction(handler):
                    continue
                for parameter, annotation in handler.__annotations__.items():
                    assert isinstance(annotation, str), (contract, name, parameter)
                    assert "int" not in annotation or annotation in _INTEGER, (
                        f"{contract.name}.{name}({parameter}: {annotation}) is unchecked"
                    )
                    checked += annotation in _INTEGER
        assert checked >= 23  # the net is not vacuous (register_as takes no int since Ed25519)

    def test_only_methods_the_contract_class_defines_are_entry_points(self):
        """Not an instance attribute, not what ``Contract`` or ``object`` provide."""
        from repro.contracts.asset import AssetContract
        from repro.contracts.coin import CoinContract
        from repro.contracts.market import MarketContract
        from repro.ledger.runtime import Contract, ContractAbort

        coin = CoinContract()
        coin.drain = lambda ctx: {"stolen": True}  # not defined by the class
        for contract in (coin, AssetContract(pki=None), MarketContract()):
            inherited = [name for name in dir(Contract) if not name.startswith("_")]
            for function in [*inherited, "drain"]:
                with pytest.raises(ContractAbort, match="has no function"):
                    contract.dispatch(function, ctx=None, args={})


class TestHostileDelivery:
    """A delivery is attacker-chosen input to the host.

    Whoever owns a redeem request — any AS of the path — answers it with a
    ``kem_share`` / ``ciphertext`` / ``tag`` of its choosing and the ledger
    stores them unread.  ``collect_reservations`` advances its event checkpoint
    before it decrypts, so an exception out of one delivery used to cost the
    host every honest reservation of the same batch (the next call returned
    ``[]``).  A box the request's key does not open, a well-sealed plaintext
    that is not a reservation record, or the honest answer to *another*
    request must land in ``HostClient.undecryptable`` instead — at no more
    than one exponentiation apiece.
    """

    HOSTILE_PLAINTEXTS = {
        "not-json": (b"reservation: yes", "JSONDecodeError"),  # a ValueError
        "not-utf8": (b"\xff\xfe{}", "UnicodeDecodeError"),  # a ValueError
        "json-list": (b"[1, 2, 3]", "TypeError"),
        "json-null": (b"null", "TypeError"),
        "no-fields": (b"{}", "KeyError"),
        "key-not-hex": (
            b'{"isd": 1, "asn": 2, "ingress": 0, "egress": 1, "res_id": 0, "bw_cls": 1,'
            b' "start": 0, "duration": 60, "auth_key": "zz"}',
            "ValueError",
        ),
        # in range, so ResInfo takes them; each failed only later, or never
        "egress-float": (
            b'{"isd": 1, "asn": 2, "ingress": 0, "egress": 1.0, "res_id": 0, "bw_cls": 1,'
            b' "start": 0, "duration": 60, "auth_key": "000102030405060708090a0b0c0d0e0f"}',
            "TypeError",
        ),
        "bw_cls-float": (
            b'{"isd": 1, "asn": 2, "ingress": 0, "egress": 1, "res_id": 0, "bw_cls": 296.0,'
            b' "start": 0, "duration": 60, "auth_key": "000102030405060708090a0b0c0d0e0f"}',
            "TypeError",
        ),
        "isd-bool": (
            b'{"isd": true, "asn": 2, "ingress": 0, "egress": 1, "res_id": 0, "bw_cls": 1,'
            b' "start": 0, "duration": 60, "auth_key": "000102030405060708090a0b0c0d0e0f"}',
            "TypeError",
        ),
    }

    @staticmethod
    def _world():
        """A 3-AS deployment, its crossings, and the first AS's service — the hostile one."""
        from repro.controlplane import deploy_market
        from repro.netsim import linear_path
        from repro.scion import as_crossings

        topology, path = linear_path(3)
        deployment = deploy_market(topology, clock=SimClock(float(T0)), asset_duration=14_400)
        crossings = as_crossings(path)
        return deployment, crossings, deployment.service(crossings[0].isd_as)

    @staticmethod
    def _buy(deployment, host, crossings, start) -> str:
        """One atomic purchase over ``crossings``; the first crossing's request id."""
        from repro.marketdata import PathSpec

        bought = host.atomic_buy_and_redeem(
            deployment.marketplace,
            host.plan_path(
                deployment.marketplace, PathSpec(crossings, start, start + 600, 1000)
            ),
        )
        assert bought.effects.ok, bought.effects.error
        return bought.effects.returns[2]["request"]

    @staticmethod
    def _answer(hostile, request_id, kem_share, ciphertext, tag) -> str:
        from repro.ledger.transactions import Command, Transaction

        args = {"request": request_id, "kem_share": kem_share, "ciphertext": ciphertext, "tag": tag}
        effects = hostile.executor.submit(
            Transaction(hostile.account.address, [Command("asset", "deliver_reservation", args)])
        ).effects
        assert effects.ok, effects.error  # the ledger stores whatever it is given
        return effects.returns[0]["delivery"]

    def test_hostile_answers_cost_the_host_none_of_the_honest_ones(self):
        import random

        from repro.contracts.asset import delivery_context
        from repro.crypto.sealing import seal

        deployment, crossings, hostile = self._world()
        host = deployment.new_host(funding_sui=100)
        rng = random.Random(18)

        expected = []  # (delivery id, exception name), in delivery order
        for index, (plaintext, raised) in enumerate([(None, "ValueError"), *self.HOSTILE_PLAINTEXTS.values()]):
            request_id = self._buy(deployment, host, crossings, T0 + 3600 + 600 * index)
            if plaintext is None:  # a box the request's key does not open
                delivery = self._answer(hostile, request_id, b"\x07" * 256, b"garbage", bytes(32))
            else:  # sealed to the host's own key, but not a reservation record
                public_key = deployment.ledger.objects[request_id].payload["public_key"]
                box = seal(public_key, plaintext, rng, delivery_context(request_id))
                delivery = self._answer(
                    hostile, request_id, box.kem_share, box.ciphertext, box.tag
                )
            expected.append((delivery, raised))
            for crossing in crossings[1:]:
                assert len(deployment.service(crossing.isd_as).poll_and_deliver()) == 1

        reservations = host.collect_reservations()

        honest = [crossing.isd_as for crossing in crossings[1:]]
        assert [r.isd_as for r in reservations] == honest * len(expected)
        assert [delivery for delivery, _ in host.undecryptable] == [d for d, _ in expected]
        for (_, reason), (_, raised) in zip(host.undecryptable, expected):
            assert reason.startswith(raised + ": "), reason
        assert "no ephemeral key decrypts" in host.undecryptable[0][1]
        # nothing is re-read, nothing is lost: the next batch is only what arrives next
        assert host.collect_reservations() == []
        assert len(host.undecryptable) == len(expected)

    @pytest.mark.parametrize(
        "share, exchanges",
        [(b"\x07" * 256, 1), (b"\x07" * 255, 0)],
        ids=["in-range", "255-bytes"],
    )
    def test_a_garbage_box_costs_one_exponentiation_however_many_keys_the_host_has_drawn(
        self, share, exchanges, pow_calls
    ):
        """The key is looked up by the request the delivery names, never
        found by trial (parent commit: five exponentiations for the one
        garbage box, and a list of five keys that only ever grew).  A share
        of the wrong length is refused before any (parent commit: one)."""
        deployment, crossings, hostile = self._world()
        host = deployment.new_host(funding_sui=100)
        for index in range(4):  # four earlier purchases, served honestly and collected
            self._buy(deployment, host, crossings[1:2], T0 + 3600 + 600 * index)
            assert len(deployment.service(crossings[1].isd_as).poll_and_deliver()) == 1
        assert len(host.collect_reservations()) == 4
        assert host._outstanding == {}  # each key went with its last answered request

        request_id = self._buy(deployment, host, crossings, T0 + 7200)
        garbage = self._answer(hostile, request_id, share, b"garbage", bytes(32))
        for crossing in crossings[1:]:
            assert len(deployment.service(crossing.isd_as).poll_and_deliver()) == 1
        assert len({key for key, _ in host._outstanding.values()}) == 1 and len(host._outstanding) == 3

        pow_calls.clear()
        reservations = host.collect_reservations()

        honest = [crossing.isd_as for crossing in crossings[1:]]
        assert [r.isd_as for r in reservations] == honest
        ((delivery, reason),) = host.undecryptable
        assert delivery == garbage and reason.startswith("ValueError: no ephemeral key decrypts")
        assert len(pow_calls) == len(honest) + exchanges
        assert host._outstanding == {}

    def test_a_delivery_that_answers_no_outstanding_request_costs_no_exponentiation(
        self, pow_calls
    ):
        """A request this client never recorded — here one a second client
        made from the same account — has no key to try."""
        from repro.controlplane import HostClient

        deployment, crossings, _ = self._world()
        host = deployment.new_host(funding_sui=100)
        twin = HostClient(host.account, host.executor, host.rng)
        twin.payment_coin = host.payment_coin
        twin.attach_indexer(deployment.marketplace, host.indexer(deployment.marketplace))
        self._buy(deployment, twin, crossings[:1], T0 + 3600)
        mine = self._buy(deployment, host, crossings[:1], T0 + 4200)
        (stray, served) = deployment.service(crossings[0].isd_as).poll_and_deliver()
        assert served.request_id == mine

        pow_calls.clear()
        assert len(host.collect_reservations()) == 1
        assert host.undecryptable == [
            (stray.delivery_id, "ValueError: delivery answers no outstanding request")
        ]
        assert len(pow_calls) == 1  # the honest one's

    def test_a_refused_transaction_records_no_key(self):
        deployment, _, _ = self._world()
        host = deployment.new_host(funding_sui=100)
        refused = host.redeem_pair("no-such-asset", "nor-this-one")
        assert not refused.effects.ok
        assert host._outstanding == {}

    def test_one_requests_box_is_no_answer_to_another_request(self):
        """The strongest replay: both requests carry the *same* redeem key,
        so the request id in the key derivation is all that tells the two
        answers apart (parent commit: the copy opens, and the host is handed
        request A's reservation a second time as request B's)."""
        import random

        deployment, crossings, hostile = self._world()
        host = deployment.new_host(funding_sui=100)
        host.rng = random.Random(7)  # a purchase's one draw is its redeem key ...
        request_a = self._buy(deployment, host, crossings[:1], T0 + 3600)
        (honest,) = hostile.poll_and_deliver()
        host.rng = random.Random(7)  # ... so this one redeems under the same key
        request_b = self._buy(deployment, host, crossings[:1], T0 + 4200)
        assert host._outstanding[request_a][0] == host._outstanding[request_b][0]
        box = deployment.ledger.objects[honest.delivery_id].payload
        replayed = self._answer(hostile, request_b, box["kem_share"], box["ciphertext"], box["tag"])

        (reservation,) = host.collect_reservations()

        assert reservation.resinfo.start == T0 + 3600  # request A's, once
        assert host.undecryptable == [
            (
                replayed,
                "ValueError: no ephemeral key decrypts the delivery: "
                "sealed box authentication failed",
            )
        ]
        assert host._outstanding == {}
