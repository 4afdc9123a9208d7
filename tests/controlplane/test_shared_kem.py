"""Sealed delivery pays one exchange per (AS, redeem key, poll) and per
(host key, share, collect) — and nothing else about a delivery changed.

Every redeem of one host transaction carries one ephemeral key, so an AS
answering several of them in one poll would run the same two-party
Diffie-Hellman exchange once per request.  ``AsService.poll_and_deliver`` and
``HostClient.collect_reservations`` each own a table of the batch's exchanges
(:func:`repro.crypto.sealing.seal` / ``unseal``) for exactly one call.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import T0, reachable

from repro.admission import ACTIVE, AdmissionController
from repro.clock import SimClock
from repro.contracts.asset import DELIVERY_TYPE
from repro.controlplane import deploy_market
from repro.hummingbird.resid import ResIdAllocator
from repro.marketdata import PathSpec
from repro.netsim import linear_path
from repro.scion import as_crossings

SLOT = 600
RATE_KBPS = 1_000


def _world():
    """A 2-AS deployment and its two crossings; most tests use the first."""
    topology, path = linear_path(2)
    deployment = deploy_market(topology, clock=SimClock(float(T0)), asset_duration=14_400)
    return deployment, as_crossings(path)


def _window(slot: int) -> tuple[int, int]:
    return T0 + 3600 + SLOT * slot, T0 + 3600 + SLOT * (slot + 1)


def _redeem(deployment, host, crossing, slot: int, key: int, rate_kbps: int = RATE_KBPS) -> str:
    """One purchase of ``crossing`` for ``slot``, redeemed under key number
    ``key``: the one draw a purchase makes from the host's ``rng`` is its
    redeem key, so reseeding picks the key.  Returns the request id."""
    host.rng = random.Random(key)
    bought = host.atomic_buy_and_redeem(
        deployment.marketplace,
        host.plan_path(
            deployment.marketplace, PathSpec([crossing], *_window(slot), rate_kbps)
        ),
    )
    assert bought.effects.ok, bought.effects.error
    return bought.effects.returns[2]["request"]


def _share(deployment, record) -> bytes:
    return deployment.ledger.objects[record.delivery_id].payload["kem_share"]


def _rows(reservations) -> list:
    return [(r.isd_as, r.resinfo, r.auth_key) for r in reservations]


class TestOneExchangePerKeyAndPoll:
    def test_two_requests_under_one_key_in_one_poll_share_one_exchange(self, pow_calls):
        deployment, (crossing, _) = _world()
        host = deployment.new_host(funding_sui=100)
        requests = [_redeem(deployment, host, crossing, slot, key=1) for slot in (0, 1)]

        records = deployment.service(crossing.isd_as).poll_and_deliver()

        assert [record.request_id for record in records] == requests
        deliveries = [deployment.ledger.objects[record.delivery_id] for record in records]
        assert deliveries[0].payload["kem_share"] == deliveries[1].payload["kem_share"]
        for delivery in deliveries:  # the delivery object is what it was
            assert delivery.type_tag == DELIVERY_TYPE
            assert sorted(delivery.payload) == ["ciphertext", "kem_share", "tag"]
            assert len(delivery.payload["kem_share"]) == 256 and len(delivery.payload["tag"]) == 16
        # same length, same share, different keys: no keystream byte is reused
        first, second = (delivery.payload["ciphertext"] for delivery in deliveries)
        assert len(first) == len(second) and first != second
        assert len(pow_calls) == 1  # parent commit: 2

        reservations = host.collect_reservations()

        assert [r.resinfo.start for r in reservations] == [_window(0)[0], _window(1)[0]]
        assert len(pow_calls) == 1 + 1  # parent commit: 2 + 2
        assert host.undecryptable == []

    def test_the_redeems_of_one_transaction_are_one_exchange_a_side(self, pow_calls):
        """The shape a two-leg transfer has: one transaction, two redeems at
        the AS, one key between them."""
        deployment, (crossing, _) = _world()
        host = deployment.new_host(funding_sui=100)
        pairs = [
            tuple(
                host.acquire(
                    deployment.marketplace, crossing.isd_as, interface, is_ingress,
                    *_window(slot), RATE_KBPS, 10**9,
                ).submitted.effects.returns[0]["asset"]
                for interface, is_ingress in ((crossing.ingress, True), (crossing.egress, False))
            )
            for slot in (0, 2)
        ]
        assert host.redeem_path(pairs).effects.ok
        assert len({key for key, _ in host._outstanding.values()}) == 1 and len(host._outstanding) == 2

        records = deployment.service(crossing.isd_as).poll_and_deliver()

        assert len({_share(deployment, record) for record in records}) == 1
        assert len(host.collect_reservations()) == 2
        assert len(pow_calls) == 2  # parent commit: 4
        assert host._outstanding == {}

    def test_the_same_two_requests_in_two_polls_are_two_exchanges(self, pow_calls):
        deployment, (crossing, _) = _world()
        host = deployment.new_host(funding_sui=100)
        service = deployment.service(crossing.isd_as)
        records = []
        for slot in (0, 1):
            _redeem(deployment, host, crossing, slot, key=1)
            records += service.poll_and_deliver()

        assert len({_share(deployment, record) for record in records}) == 2
        assert len(pow_calls) == 2
        assert len(host.collect_reservations()) == 2
        assert len(pow_calls) == 2 + 2  # one key, two shares

    def test_two_keys_in_one_poll_are_two_exchanges(self, pow_calls):
        deployment, (crossing, _) = _world()
        host = deployment.new_host(funding_sui=100)
        for slot, key in ((0, 1), (1, 2)):
            _redeem(deployment, host, crossing, slot, key)

        records = deployment.service(crossing.isd_as).poll_and_deliver()

        assert len({_share(deployment, record) for record in records}) == 2
        assert len(host.collect_reservations()) == 2
        assert len(pow_calls) == 2 + 2

    def test_two_ases_never_share_an_exchange(self, pow_calls):
        deployment, crossings = _world()
        host = deployment.new_host(funding_sui=100)
        for crossing in crossings:
            _redeem(deployment, host, crossing, 0, key=1)

        records = [
            record
            for crossing in crossings
            for record in deployment.service(crossing.isd_as).poll_and_deliver()
        ]

        assert len({_share(deployment, record) for record in records}) == 2
        assert len(host.collect_reservations()) == 2
        assert len(pow_calls) == 2 + 2

    def test_no_secret_outlives_the_poll_or_the_collect_that_made_it(self, pow_calls):
        deployment, (crossing, _) = _world()
        host = deployment.new_host(funding_sui=100)
        service = deployment.service(crossing.isd_as)
        for slot in (0, 1):
            _redeem(deployment, host, crossing, slot, key=1)
        (host_key,) = {key for key, _ in host._outstanding.values()}

        service.poll_and_deliver()

        ((_, ephemeral_secret, shared_secret),) = pow_calls
        held = {obj for obj in reachable(service) if isinstance(obj, int)}
        assert not held & {ephemeral_secret, shared_secret}

        assert len(host.collect_reservations()) == 2

        assert pow_calls[1][1:] == (host_key.secret, shared_secret)
        held = {obj for obj in reachable(host) if isinstance(obj, int)}
        assert not held & {host_key.secret, shared_secret}
        # ... and neither call left a new attribute behind
        fresh, _ = _world()
        untouched = (fresh.service(crossing.isd_as), fresh.new_host(funding_sui=1))
        assert [set(vars(obj)) for obj in (service, host)] == [set(vars(obj)) for obj in untouched]


def _refuse_by_admission(service, crossing, monkeypatch) -> None:
    # live capacity for the second request (1,000 kbps), not the first (4,000)
    service.admission = AdmissionController(2_000)


def _refuse_by_resid_exhaustion(service, crossing, monkeypatch) -> None:
    # one ResID on the ingress interface, taken for the first request's window
    allocator = service._allocators[crossing.ingress] = ResIdAllocator(1)
    allocator.allocate(*_window(0))


def _refuse_by_ledger(service, crossing, monkeypatch) -> None:
    # the first delivery names a request the AS does not own: sealed, then refused
    submit, seen = service._submit, []

    def tampering(command):
        seen.append(command)
        if len(seen) == 1:
            command.args["request"] = "0" * 64
        return submit(command)

    monkeypatch.setattr(service, "_submit", tampering)


class TestRefusedRequestBesideAServedOne:
    """Request 1 of 2 under one key is refused; request 2 is still delivered,
    under the same table, and what request 1 claimed is handed back."""

    @pytest.mark.parametrize(
        "refuse, code",
        [
            (_refuse_by_admission, "no_capacity"),
            (_refuse_by_resid_exhaustion, "no_resid"),
            (_refuse_by_ledger, "delivery_aborted"),  # sealed twice, exchanged once
        ],
        ids=["admission", "resid-exhaustion", "ledger-after-sealing"],
    )
    def test_the_second_request_is_served_and_the_first_rolled_back(
        self, refuse, code, monkeypatch, pow_calls
    ):
        deployment, (crossing, _) = _world()
        host = deployment.new_host(funding_sui=100)
        service = deployment.service(crossing.isd_as)
        refused = _redeem(deployment, host, crossing, 0, key=1, rate_kbps=4_000)
        served = _redeem(deployment, host, crossing, 1, key=1)
        refuse(service, crossing, monkeypatch)

        records = service.poll_and_deliver()

        assert [(record.request_id, record.reason_code) for record in records] == [
            (refused, code),
            (served, None),
        ]
        assert len(pow_calls) == 1
        for interface, is_ingress in ((crossing.ingress, True), (crossing.egress, False)):
            calendar = service.admission.calendar(interface, is_ingress, ACTIVE)
            assert calendar.peak_commitment(*_window(0)) == 0
            assert calendar.peak_commitment(*_window(1)) == RATE_KBPS
        if refuse is not _refuse_by_resid_exhaustion:
            # the refused request's ResID, if it got one, is free again
            assert service._allocator(crossing.ingress).allocate(*_window(0)) == 0
        (reservation,) = host.collect_reservations()
        assert reservation.resinfo.start == _window(1)[0]
        assert host.undecryptable == []
        assert host.refused == {refused: code}


class TestOnePollOrMany:
    @settings(max_examples=8, deadline=None)  # ~35 ms of exponentiation a request and arm
    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_delivering_in_one_poll_and_in_one_poll_each_decrypt_alike(self, keys, collect_each):
        """The table changes how many exchanges run — never what a host reads."""
        decrypted = []
        for poll_each in (False, True):
            deployment, (crossing, _) = _world()
            host = deployment.new_host(funding_sui=100)
            service = deployment.service(crossing.isd_as)
            reservations = []
            for slot, key in enumerate(keys):
                _redeem(deployment, host, crossing, slot, key)
                if poll_each:
                    assert len(service.poll_and_deliver()) == 1
                    if collect_each:
                        reservations += host.collect_reservations()
            if not poll_each:
                assert len(service.poll_and_deliver()) == len(keys)
            reservations += host.collect_reservations()
            assert host.undecryptable == [] and host._outstanding == {}
            decrypted.append(_rows(reservations))
        assert decrypted[0] == decrypted[1] and len(decrypted[0]) == len(keys)
