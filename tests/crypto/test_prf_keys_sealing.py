"""PRF backends, reservation-key derivation, sealing, and signatures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import SecretValue, derive_auth_key, pack_resinfo_input
from repro.crypto.prf import AesPrf, Blake2Prf, PrfFactory
from repro.crypto.sealing import KeyPair, seal, unseal
from repro.crypto.signatures import SigningKey, verify


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
        sv = SecretValue.from_seed("test")
        base = derive_auth_key(sv, 1, 2, 3, 4, 5, 6)
        assert derive_auth_key(sv, 9, 2, 3, 4, 5, 6) != base
        assert derive_auth_key(sv, 1, 2, 3, 4, 99, 6) != base
        assert derive_auth_key(sv, 1, 2, 3, 4, 5, 6) == base

    def test_key_changes_with_secret_value(self):
        a = derive_auth_key(SecretValue.from_seed("a"), 1, 2, 3, 4, 5, 6)
        b = derive_auth_key(SecretValue.from_seed("b"), 1, 2, 3, 4, 5, 6)
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

    @settings(deadline=None)  # four 2048-bit modexps per example
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
