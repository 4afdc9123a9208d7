"""AES-CMAC against the four RFC 4493 test vectors plus API properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cmac import Cmac, aes_cmac, derive_subkeys
from repro.crypto.aes import AES128

RFC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
# message length -> tag, RFC 4493 section 4
RFC_TAGS = {
    0: "bb1d6929e95937287fa37d129b756746",
    16: "070a16b46b4d4144f79bdd9dd04a287c",
    40: "dfa66747de9ae63030ca32611497c827",
    64: "51f0bebf7e3b9d92fc49741779363cfe",
}


class TestRfc4493:
    def test_subkeys(self):
        k1, k2 = derive_subkeys(AES128(RFC_KEY))
        assert k1.hex() == "fbeed618357133667c85e08f7236a8de"
        assert k2.hex() == "f7ddac306ae266ccf90bc11ee46d513b"

    def test_empty_message(self):
        assert aes_cmac(RFC_KEY, b"").hex() == RFC_TAGS[0]

    def test_16_bytes(self):
        assert aes_cmac(RFC_KEY, RFC_MSG[:16]).hex() == RFC_TAGS[16]

    def test_40_bytes(self):
        assert aes_cmac(RFC_KEY, RFC_MSG[:40]).hex() == RFC_TAGS[40]

    def test_64_bytes(self):
        assert aes_cmac(RFC_KEY, RFC_MSG).hex() == RFC_TAGS[64]

    def test_from_cipher_computes_the_rfc_vectors(self):
        mac = Cmac.from_cipher(AES128(RFC_KEY))
        for size, tag in RFC_TAGS.items():
            assert mac.compute(RFC_MSG[:size]).hex() == tag


class TestVerify:
    def test_accepts_valid_tag(self):
        mac = Cmac(RFC_KEY)
        assert mac.verify(RFC_MSG, mac.compute(RFC_MSG))

    def test_accepts_truncated_tag(self):
        mac = Cmac(RFC_KEY)
        assert mac.verify(RFC_MSG, mac.compute(RFC_MSG)[:6])

    def test_rejects_flipped_bit(self):
        mac = Cmac(RFC_KEY)
        tag = bytearray(mac.compute(RFC_MSG))
        tag[0] ^= 1
        assert not mac.verify(RFC_MSG, bytes(tag))

    def test_rejects_empty_tag(self):
        assert not Cmac(RFC_KEY).verify(RFC_MSG, b"")

    def test_rejects_overlong_tag(self):
        mac = Cmac(RFC_KEY)
        assert not mac.verify(RFC_MSG, mac.compute(RFC_MSG) + b"\x00")


class TestProperties:
    @given(st.binary(max_size=100))
    def test_output_is_16_bytes(self, message):
        assert len(aes_cmac(RFC_KEY, message)) == 16

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_messages_distinct_macs(self, a, b):
        if a != b:
            assert aes_cmac(RFC_KEY, a) != aes_cmac(RFC_KEY, b)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_key_separation(self, key_a, key_b):
        if key_a != key_b:
            assert aes_cmac(key_a, RFC_MSG) != aes_cmac(key_b, RFC_MSG)

    def test_block_boundary_padding_differs(self):
        # A full final block uses K1, a padded one K2: 15 vs 16 bytes of the
        # same prefix must not collide via length extension.
        assert aes_cmac(RFC_KEY, RFC_MSG[:15]) != aes_cmac(RFC_KEY, RFC_MSG[:16])
