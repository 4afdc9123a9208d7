"""PRF backends, reservation-key derivation, sealing, and signatures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import SecretValue, derive_auth_key, pack_resinfo_input
from repro.crypto.cmac import Cmac
from repro.crypto.prf import AesPrf, Blake2Prf, PrfFactory
from repro.crypto.sealing import MODP_G, MODP_P, KeyPair, SealedBox, seal, unseal
from repro.crypto.signatures import GROUP_ORDER, SigningKey, verify

# Values a peer may send in place of a group element; none lies in [2, p-2].
NOT_GROUP_ELEMENTS = [0, 1, MODP_P - 1, MODP_P, 1 << 2048]


class RecordingRng:
    """The documented ``rng`` contract and nothing more: ``randrange`` only,
    every call's bounds kept."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.calls: list[tuple[int, int]] = []

    def randrange(self, start: int, stop: int) -> int:
        self.calls.append((start, stop))
        return self._rng.randrange(start, stop)


class TestPrfBackends:
    @pytest.mark.parametrize("backend", ["aes", "blake2"])
    def test_output_is_16_bytes(self, backend):
        prf = PrfFactory(backend)(bytes(16))
        assert len(prf.compute(bytes(16))) == 16
        assert len(prf.compute(b"longer than one block" * 3)) == 16

    def test_aes_single_block_is_ecb(self):
        from repro.crypto.aes import AES128

        key = bytes(range(16))
        block = bytes(range(16, 32))
        assert AesPrf(key).compute(block) == AES128(key).encrypt_block(block)

    def test_keying_an_aes_prf_is_one_key_expansion_and_nothing_else(self, aes_calls):
        prf = AesPrf(bytes(range(16)))
        assert aes_calls == {"expand_key": 1, "encrypt_block": 0}
        prf.compute(bytes(16))
        prf.compute(bytes(16))
        assert aes_calls == {"expand_key": 1, "encrypt_block": 2}

    @pytest.mark.parametrize("size", [0, 15, 17, 40, 64])
    def test_aes_other_lengths_are_cmac_set_up_on_first_use(self, size, aes_calls):
        from tests.crypto.test_cmac import RFC_KEY, RFC_MSG, RFC_TAGS

        message = RFC_MSG[:size]
        expected = Cmac(RFC_KEY).compute(message)
        assert RFC_TAGS.get(size, expected.hex()) == expected.hex()
        prf = AesPrf(RFC_KEY)
        keyed = dict(aes_calls)
        assert prf.compute(message) == expected
        assert prf.compute(message) == expected
        # subkeys derived once, from the schedule the PRF already had
        blocks = max(1, -(-size // 16))
        assert aes_calls["expand_key"] == keyed["expand_key"]
        assert aes_calls["encrypt_block"] - keyed["encrypt_block"] == 1 + 2 * blocks

    def test_backends_differ(self):
        key, msg = bytes(16), bytes(16)
        assert AesPrf(key).compute(msg) != Blake2Prf(key).compute(msg)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            PrfFactory("md5")

    def test_deterministic(self):
        prf = PrfFactory("blake2")(b"k" * 16)
        assert prf.compute(b"m") == prf.compute(b"m")


class TestResInfoPacking:
    def test_layout_is_one_aes_block(self):
        block = pack_resinfo_input(1, 2, 3, 4, 5, 6)
        assert len(block) == 16

    def test_field_positions(self):
        block = pack_resinfo_input(
            ingress=0x1234,
            egress=0x5678,
            res_id=0x2ABCDE,  # 22 bits
            bw_cls=0x3FF,
            res_start=0xDEADBEEF,
            res_duration=0xCAFE,
        )
        assert block[0:2] == bytes.fromhex("1234")
        assert block[2:4] == bytes.fromhex("5678")
        combined = int.from_bytes(block[4:8], "big")
        assert combined >> 10 == 0x2ABCDE
        assert combined & 0x3FF == 0x3FF
        assert block[8:12] == bytes.fromhex("deadbeef")
        assert block[12:14] == bytes.fromhex("cafe")
        assert block[14:16] == b"\x00\x00"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ingress": 1 << 16},
            {"egress": -1},
            {"res_id": 1 << 22},
            {"bw_cls": 1 << 10},
            {"res_start": 1 << 32},
            {"res_duration": 1 << 16},
        ],
    )
    def test_bounds(self, kwargs):
        base = dict(ingress=1, egress=2, res_id=3, bw_cls=4, res_start=5, res_duration=6)
        base.update(kwargs)
        with pytest.raises(ValueError):
            pack_resinfo_input(**base)

    def test_key_changes_with_any_field(self):
        sv = AesPrf(SecretValue.from_seed("test").key)
        base = derive_auth_key(sv, 1, 2, 3, 4, 5, 6)
        assert derive_auth_key(sv, 9, 2, 3, 4, 5, 6) != base
        assert derive_auth_key(sv, 1, 2, 3, 4, 99, 6) != base
        assert derive_auth_key(sv, 1, 2, 3, 4, 5, 6) == base

    def test_key_changes_with_secret_value(self):
        a = derive_auth_key(AesPrf(SecretValue.from_seed("a").key), 1, 2, 3, 4, 5, 6)
        b = derive_auth_key(AesPrf(SecretValue.from_seed("b").key), 1, 2, 3, 4, 5, 6)
        assert a != b


class TestSealing:
    def test_roundtrip(self):
        rng = random.Random(1)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"secret reservation data", rng)
        assert unseal(recipient, box) == b"secret reservation data"

    def test_wrong_recipient_fails(self):
        rng = random.Random(2)
        recipient = KeyPair.generate(rng)
        other = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng)
        with pytest.raises(ValueError):
            unseal(other, box)

    def test_tampered_ciphertext_fails(self):
        rng = random.Random(3)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng)
        tampered = type(box)(
            kem_share=box.kem_share,
            ciphertext=bytes(b ^ 1 for b in box.ciphertext),
            tag=box.tag,
        )
        with pytest.raises(ValueError):
            unseal(recipient, tampered)

    @settings(deadline=None)  # four 1024-bit-exponent modexps per example, ~50 ms together
    @given(st.binary(min_size=1, max_size=200))
    def test_arbitrary_payloads(self, payload):
        rng = random.Random(4)
        recipient = KeyPair.generate(rng)
        assert unseal(recipient, seal(recipient.public, payload, rng)) == payload

    def test_context_separation(self):
        rng = random.Random(5)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng, context=b"a")
        with pytest.raises(ValueError):
            unseal(recipient, box, context=b"b")

    def test_tampered_tag_fails(self):
        rng = random.Random(10)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng)
        forged = SealedBox(box.kem_share, box.ciphertext, bytes(b ^ 1 for b in box.tag))
        with pytest.raises(ValueError, match="authentication"):
            unseal(recipient, forged)

    def test_dh_secrets_are_1024_bit_and_drawn_through_randrange_only(self):
        rng = RecordingRng(11)
        keys = [KeyPair.generate(rng) for _ in range(20)]
        assert all(key.secret.bit_length() == 1024 for key in keys)
        assert rng.calls == [(1 << 1023, 1 << 1024)] * 20
        assert all(key.public == pow(MODP_G, key.secret, MODP_P) for key in keys)

    def test_every_seal_draws_a_fresh_ephemeral_secret(self):
        rng = RecordingRng(12)
        recipient, other = KeyPair.generate(rng), KeyPair.generate(rng)
        boxes = [
            seal(recipient.public, b"data", rng),
            seal(recipient.public, b"data", rng),  # same recipient, same plaintext
            seal(other.public, b"data", rng),
        ]
        assert len(rng.calls) == 2 + len(boxes)  # one draw per keypair, one per seal
        assert len({box.kem_share for box in boxes}) == len(boxes)
        assert len({box.ciphertext for box in boxes}) == len(boxes)

    @pytest.mark.parametrize("value", NOT_GROUP_ELEMENTS)
    def test_seal_refuses_a_recipient_key_outside_the_group_range(self, value):
        rng = RecordingRng(13)
        with pytest.raises(ValueError, match="group element"):
            seal(value, b"data", rng)
        assert rng.calls == []  # refused before any secret is drawn

    @pytest.mark.parametrize("value", NOT_GROUP_ELEMENTS)
    def test_unseal_refuses_a_share_outside_the_group_range(self, value):
        rng = random.Random(14)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng)
        with pytest.raises(ValueError, match="group element"):
            unseal(recipient, SealedBox(value, box.ciphertext, box.tag))

    @pytest.mark.parametrize("value", [2, MODP_P - 2])
    def test_range_edges_are_group_elements(self, value):
        rng = random.Random(15)
        recipient = KeyPair.generate(rng)
        seal(value, b"data", rng)  # accepted as a recipient key
        with pytest.raises(ValueError, match="authentication"):  # in range, wrong share
            unseal(recipient, SealedBox(value, b"data", bytes(16)))


class TestSharedExchange:
    """One table, one batch: a share and its exchange serve every message of
    the batch to one recipient key, and ``context`` alone separates them."""

    def test_one_table_is_one_draw_one_share_and_one_exchange_a_side(self, pow_calls):
        rng = RecordingRng(20)
        recipient = KeyPair.generate(rng)
        sealing, opening = {}, {}
        boxes = {
            context: seal(recipient.public, b"same plaintext", rng, context, sealing)
            for context in (b"request-a", b"request-b", b"request-c")
        }
        assert len(rng.calls) == 1 + 1  # the recipient's key, one ephemeral for the batch
        assert len({box.kem_share for box in boxes.values()}) == 1
        # different keys under the same share: neither keystream nor tag repeats
        assert len({box.ciphertext for box in boxes.values()}) == len(boxes)
        assert len({box.tag for box in boxes.values()}) == len(boxes)
        assert len(pow_calls) == 1
        for context, box in boxes.items():
            assert unseal(recipient, box, context, opening) == b"same plaintext"
        assert len(pow_calls) == 1 + 1
        # ... and the box of one context is no answer under another
        with pytest.raises(ValueError, match="authentication"):
            unseal(recipient, boxes[b"request-a"], b"request-b", opening)
        assert len(pow_calls) == 1 + 1  # refused by the tag, not by a new exchange

    def test_a_table_is_per_recipient_key_and_per_batch(self, pow_calls):
        rng = RecordingRng(21)
        first, second = KeyPair.generate(rng), KeyPair.generate(rng)
        batch = {}
        shares = [
            seal(first.public, b"data", rng, b"a", batch).kem_share,
            seal(second.public, b"data", rng, b"a", batch).kem_share,  # another key
            seal(first.public, b"data", rng, b"a", {}).kem_share,  # another batch
            seal(first.public, b"data", rng, b"a").kem_share,  # no batch at all
        ]
        assert len(set(shares)) == len(shares) == len(pow_calls)
        assert len(rng.calls) == 2 + len(shares)

    def test_a_table_matches_sealing_each_message_alone_under_the_same_draws(self):
        """The table changes how often the exchange runs, not what it yields."""
        recipient = KeyPair.generate(random.Random(22))
        alone = seal(recipient.public, b"data", random.Random(23), b"b")
        batch = {}
        seal(recipient.public, b"other", rng := random.Random(23), b"a", batch)
        assert seal(recipient.public, b"data", rng, b"b", batch) == alone

    def test_same_share_and_context_is_refused_before_any_byte_is_encrypted(self, aes_calls):
        rng = RecordingRng(24)
        recipient = KeyPair.generate(rng)
        batch = {}
        seal(recipient.public, b"first", rng, b"request-a", batch)
        aes_calls.update(expand_key=0, encrypt_block=0)
        with pytest.raises(ValueError, match="already sealed under this share and context"):
            seal(recipient.public, b"second", rng, b"request-a", batch)
        assert aes_calls == {"expand_key": 0, "encrypt_block": 0}
        assert len(rng.calls) == 1 + 1
        seal(recipient.public, b"second", rng, b"request-b", batch)  # the table is still good

    def test_an_unseal_table_is_per_recipient_and_per_share(self, pow_calls):
        rng = random.Random(25)
        first, second = KeyPair.generate(rng), KeyPair.generate(rng)
        box = seal(first.public, b"data", rng)
        other = seal(first.public, b"data", rng)
        pow_calls.clear()
        opening = {}
        assert unseal(first, box, exchanges=opening) == b"data"
        assert unseal(first, other, exchanges=opening) == b"data"  # another share
        with pytest.raises(ValueError, match="authentication"):
            unseal(second, box, exchanges=opening)  # another key: its own exchange
        assert len(pow_calls) == 3
        assert unseal(first, box, exchanges=opening) == b"data"
        assert len(pow_calls) == 3


class TestSignatures:
    def test_sign_verify(self):
        rng = random.Random(6)
        key = SigningKey.generate(rng)
        signature = key.sign(b"register me", rng)
        assert verify(key.public, b"register me", signature)

    def test_wrong_message_rejected(self):
        rng = random.Random(7)
        key = SigningKey.generate(rng)
        signature = key.sign(b"register me", rng)
        assert not verify(key.public, b"register you", signature)

    def test_wrong_key_rejected(self):
        rng = random.Random(8)
        key = SigningKey.generate(rng)
        other = SigningKey.generate(rng)
        signature = key.sign(b"m", rng)
        assert not verify(other.public, b"m", signature)

    def test_degenerate_public_keys_rejected(self):
        rng = random.Random(9)
        signature = SigningKey.generate(rng).sign(b"m", rng)
        assert not verify(0, b"m", signature)
        assert not verify(1, b"m", signature)

    def test_secret_and_nonce_stay_uniform_below_the_group_order(self):
        """A nonce shorter than q leaks the key through ``s = k + e·x``
        (hidden-number problem): only Diffie-Hellman exponents were
        shortened, and this pins it."""
        rng = RecordingRng(16)
        key = SigningKey.generate(rng)
        key.sign(b"m", rng)
        key.sign(b"m", rng)
        assert rng.calls == [(1, GROUP_ORDER)] * 3

    def test_memoised_public_key_is_invisible(self):
        fresh, used = SigningKey(5), SigningKey(5)
        assert used.public == pow(4, 5, MODP_P)
        assert used.public is used.public  # computed once
        assert fresh == used and hash(fresh) == hash(used)
        assert repr(fresh) == repr(used) == "SigningKey(secret=5)"
        assert fresh.public == used.public
        with pytest.raises(TypeError):
            SigningKey(5, 25)  # the memo is not a constructor argument


class TestAccountAddress:
    def test_address_is_derived_once_from_the_signing_key(self):
        from repro.ledger.accounts import Account, address_of

        account = Account.generate(random.Random(17), "host")
        assert account.address == address_of(account.signing_key.public)
        assert account.address is account.address
        twin = Account.generate(random.Random(17), "host")
        assert twin == account and repr(twin) == repr(account)  # memo invisible

    def test_account_generation_draws_the_signing_secret_only(self):
        from repro.ledger.accounts import Account

        rng = RecordingRng(18)
        Account.generate(rng)
        assert rng.calls == [(1, GROUP_ORDER)]


class TestHostDecrypt:
    @pytest.mark.parametrize("share", NOT_GROUP_ELEMENTS[:3])  # what fits the 256-byte field
    def test_out_of_range_share_ends_in_the_no_key_decrypts_error(self, share):
        from types import SimpleNamespace

        from repro.controlplane.hostclient import HostClient
        from repro.ledger.accounts import Account

        rng = random.Random(19)
        host = HostClient(Account.generate(rng), executor=None, rng=rng)
        host._redeem_keys["request"] = KeyPair.generate(rng)
        delivery = SimpleNamespace(
            payload={"kem_share": share.to_bytes(256, "big"), "ciphertext": b"x", "tag": bytes(16)}
        )
        with pytest.raises(ValueError, match="no ephemeral key decrypts.*group element"):
            host._decrypt(delivery, "request", {})
