"""PRF backends, reservation-key derivation, sealing, and account addresses."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import sealing
from repro.crypto.keys import SecretValue, derive_auth_key, pack_resinfo_input
from repro.crypto.aes import AES128
from repro.crypto.cmac import Cmac
from repro.crypto.prf import AesPrf, Blake2Prf, PrfFactory
from repro.crypto.sealing import (
    MODP_G,
    MODP_P,
    KeyPair,
    SealedBox,
    check_group_element,
    seal,
    unseal,
)


def encode(value: int, length: int = 256) -> bytes:
    return value.to_bytes(length, "big")


# Encodings a peer may send in place of a group element; none names one in
# [2, p-2].  The last is the largest 256-byte value, far above p.
NOT_GROUP_ELEMENTS = {
    "0": encode(0),
    "1": encode(1),
    "p-1": encode(MODP_P - 1),
    "p": encode(MODP_P),
    "2^2048-1": encode((1 << 2048) - 1),
}

# Whatever else a peer may send: anything but exact 256-byte ``bytes`` is
# refused with a ValueError — a TypeError would escape the AS's refusal
# handler before its claims are rolled back.
NOT_ENCODINGS = {
    "bytearray": bytearray(encode(3)),
    "memoryview": memoryview(encode(3)),
    "bytes-subclass": type("Key", (bytes,), {})(encode(3)),
    "int": 3,
    "str": encode(3).hex(),
    "None": None,
    "empty": b"",
    "255-bytes": encode(3, 255),
    "257-bytes": encode(3, 257),
}


class RecordingRng:
    """The documented ``rng`` contract and nothing more: ``randrange`` (a
    sealing secret) and ``randbytes`` (a signing seed), every call's
    arguments kept."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.calls: list[tuple] = []

    def randrange(self, start: int, stop: int) -> int:
        self.calls.append((start, stop))
        return self._rng.randrange(start, stop)

    def randbytes(self, n: int) -> bytes:
        self.calls.append(("bytes", n))
        return self._rng.randbytes(n)


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
        expected = Cmac(AES128(RFC_KEY)).compute(message)
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


def blake2s_16(key: bytes, message: bytes) -> bytes:
    """Keyed BLAKE2s from scratch: what a held-key ``Blake2Prf`` must return."""
    return hashlib.blake2s(message, key=key, digest_size=16).digest()


# Empty, one AES block, one BLAKE2s block, one byte past it, several blocks.
BLAKE2_MESSAGES = st.one_of(
    st.binary(min_size=0, max_size=0),
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=64, max_size=64),
    st.binary(min_size=65, max_size=65),
    st.binary(min_size=200, max_size=400),
)
SIXTEEN_BYTES = st.binary(min_size=16, max_size=16)


class TestHeldBlake2State:
    """``Blake2Prf`` absorbs its key once and continues a copy per call."""

    @pytest.mark.parametrize("size", [0, 16, 64, 65, 200, 333])
    @given(key=SIXTEEN_BYTES, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_equals_keyed_blake2s_from_scratch(self, size, key, data):
        message = data.draw(st.binary(min_size=size, max_size=size))
        assert Blake2Prf(key).compute(message) == blake2s_16(key, message)

    @given(
        keys=st.tuples(SIXTEEN_BYTES, SIXTEEN_BYTES),
        messages=st.lists(BLAKE2_MESSAGES, min_size=2, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_held_state_is_never_updated_in_place(self, keys, messages):
        first, second = (Blake2Prf(key) for key in keys)
        for message in messages:  # repeated, and interleaved with another key
            for _ in range(2):
                assert first.compute(message) == blake2s_16(keys[0], message)
                assert second.compute(message) == blake2s_16(keys[1], message)

    @pytest.mark.parametrize("length", [15, 17])
    def test_a_key_of_any_other_length_is_refused(self, length):
        with pytest.raises(ValueError, match="16 bytes"):
            Blake2Prf(bytes(length))


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

    @settings(deadline=None)  # four 512-bit-exponent modexps per example
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

    def test_dh_secrets_are_512_bit_and_drawn_through_randrange_only(self):
        rng = RecordingRng(11)
        keys = [KeyPair.generate(rng) for _ in range(20)]
        assert all(key.secret.bit_length() == 512 for key in keys)
        assert rng.calls == [(1 << 511, 1 << 512)] * 20
        assert all(key.public == encode(pow(MODP_G, key.secret, MODP_P)) for key in keys)

    def test_dh_secret_width_stays_above_the_rfc_7919_floor(self):
        # RFC 7919 §5.2: a 2048-bit group (~112-bit security) wants exponents
        # of at least 225 bits; a narrower _SECRET_BITS is a break, not a speed-up.
        assert sealing._SECRET_BITS >= 225

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

    @pytest.mark.parametrize("value", NOT_GROUP_ELEMENTS.values(), ids=NOT_GROUP_ELEMENTS.keys())
    def test_seal_refuses_a_recipient_key_outside_the_group_range(self, value):
        rng = RecordingRng(13)
        with pytest.raises(ValueError, match="group element"):
            seal(value, b"data", rng)
        assert rng.calls == []  # refused before any secret is drawn

    @pytest.mark.parametrize("value", NOT_GROUP_ELEMENTS.values(), ids=NOT_GROUP_ELEMENTS.keys())
    def test_unseal_refuses_a_share_outside_the_group_range(self, value):
        rng = random.Random(14)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng)
        with pytest.raises(ValueError, match="group element"):
            unseal(recipient, SealedBox(value, box.ciphertext, box.tag))

    @pytest.mark.parametrize("value", [encode(2), encode(MODP_P - 2)], ids=["2", "p-2"])
    def test_range_edges_are_group_elements(self, value):
        rng = random.Random(15)
        recipient = KeyPair.generate(rng)
        assert check_group_element(value) == int.from_bytes(value, "big")
        seal(value, b"data", rng)  # accepted as a recipient key
        with pytest.raises(ValueError, match="authentication"):  # in range, wrong share
            unseal(recipient, SealedBox(value, b"data", bytes(16)))

    @pytest.mark.parametrize("value", NOT_ENCODINGS.values(), ids=NOT_ENCODINGS.keys())
    def test_anything_but_256_bytes_is_a_value_error_before_any_work(self, value, pow_calls):
        rng = RecordingRng(16)
        recipient = KeyPair.generate(rng)
        box = seal(recipient.public, b"data", rng)
        pow_calls.clear()
        rng.calls.clear()
        with pytest.raises(ValueError, match="256 bytes"):
            check_group_element(value)
        with pytest.raises(ValueError, match="256 bytes"):
            seal(value, b"data", rng, exchanges={})
        with pytest.raises(ValueError, match="256 bytes"):
            unseal(recipient, SealedBox(value, box.ciphertext, box.tag), exchanges={})
        assert rng.calls == [] and pow_calls == []


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
        assert rng.calls == [("bytes", 32)]


class TestHostDecrypt:
    @pytest.mark.parametrize("share", NOT_GROUP_ELEMENTS.values(), ids=NOT_GROUP_ELEMENTS.keys())
    def test_out_of_range_share_ends_in_the_no_key_decrypts_error(self, share):
        from types import SimpleNamespace

        from repro.controlplane.hostclient import HostClient
        from repro.ledger.accounts import Account

        rng = random.Random(19)
        host = HostClient(Account.generate(rng), executor=None, rng=rng)
        host._outstanding["request"] = (KeyPair.generate(rng), None)
        delivery = SimpleNamespace(
            payload={"kem_share": share, "ciphertext": b"x", "tag": bytes(16)}
        )
        with pytest.raises(ValueError, match="no ephemeral key decrypts.*group element"):
            host._decrypt(delivery, "request", {})
