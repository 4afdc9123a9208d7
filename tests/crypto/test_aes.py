"""AES-128 against FIPS-197 / SP 800-38A vectors, a byte-wise reference
cipher kept here, and structural properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES128, SBOX, expand_key, xor_bytes

# -- FIPS-197 written the slow way: a 16-byte state, one transformation per
# -- function, its own field arithmetic, S-box and key schedule.  Shares no
# -- table with the module under test.


def _xtime(a: int) -> int:
    a <<= 1
    return a ^ 0x11B if a & 0x100 else a


def _mul(a: int, b: int) -> int:
    product = 0
    while b:
        if b & 1:
            product ^= a
        a, b = _xtime(a), b >> 1
    return product


def _reference_sbox() -> list[int]:
    sbox = []
    for x in range(256):
        inverse = next((y for y in range(256) if _mul(x, y) == 1), 0)
        affine = 0x63
        for n in range(5):  # b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63
            affine ^= (inverse << n | inverse >> (8 - n)) & 0xFF
        sbox.append(affine)
    return sbox


REFERENCE_SBOX = _reference_sbox()


def _reference_round_keys(key: bytes) -> list[bytes]:
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = bytes(REFERENCE_SBOX[b] for b in temp[1:] + temp[:1])
            temp = bytes([temp[0] ^ rcon]) + temp[1:]
            rcon = _xtime(rcon)
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[i : i + 4]) for i in range(0, 44, 4)]


def _mix_column(col: bytes) -> bytes:
    a0, a1, a2, a3 = col
    return bytes(
        [
            _mul(a0, 2) ^ _mul(a1, 3) ^ a2 ^ a3,
            a0 ^ _mul(a1, 2) ^ _mul(a2, 3) ^ a3,
            a0 ^ a1 ^ _mul(a2, 2) ^ _mul(a3, 3),
            _mul(a0, 3) ^ a1 ^ a2 ^ _mul(a3, 2),
        ]
    )


def reference_encrypt(key: bytes, block: bytes) -> bytes:
    """Cipher() of FIPS-197 §5.1; byte ``4 * column + row`` of the state."""
    round_keys = _reference_round_keys(key)
    state = xor_bytes(block, round_keys[0])
    for round_index in range(1, 11):
        state = bytes(REFERENCE_SBOX[b] for b in state)  # SubBytes
        state = bytes(  # ShiftRows: row r rotates left by r columns
            state[4 * ((col + row) % 4) + row] for col in range(4) for row in range(4)
        )
        if round_index < 10:
            state = b"".join(_mix_column(state[i : i + 4]) for i in range(0, 16, 4))
        state = xor_bytes(state, round_keys[round_index])
    return state


class TestKnownVectors:
    def test_fips197_appendix_c(self):
        cipher = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ciphertext = cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_sp800_38a_ecb_vectors(self):
        cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        vectors = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ]
        for plaintext, expected in vectors:
            assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == expected

    def test_zero_key_zero_block(self):
        assert (
            AES128(bytes(16)).encrypt_block(bytes(16)).hex()
            == "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )


class TestStructure:
    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_key_schedule_length(self):
        round_keys = expand_key(bytes(16))
        assert len(round_keys) == 11
        assert all(0 <= round_key < 1 << 128 for round_key in round_keys)

    def test_key_schedule_first_words_are_the_key(self):
        key = bytes(range(16))
        assert expand_key(key)[0] == int.from_bytes(key, "big")

    def test_fips197_appendix_a1_round_keys(self):
        round_keys = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert [f"{round_key:032x}" for round_key in round_keys] == [
            "2b7e151628aed2a6abf7158809cf4f3c",
            "a0fafe1788542cb123a339392a6c7605",
            "f2c295f27a96b9435935807a7359f67f",
            "3d80477d4716fe3e1e237e446d7a883b",
            "ef44a541a8525b7fb671253bdb0bad00",
            "d4d1c6f87c839d87caf2b8bc11f915bc",
            "6d88a37a110b3efddbf98641ca0093fd",
            "4e54f70e5f5fc9f384a64fb24ea6dc4f",
            "ead27321b58dbad2312bf5607f8d292f",
            "ac7766f319fadc2128d12941575c006e",
            "d014f9a8c9ee2589e13f0cc8b6630ca6",
        ]

    def test_rejects_wrong_key_size(self):
        with pytest.raises(ValueError):
            AES128(bytes(15))

    def test_rejects_wrong_block_size(self):
        with pytest.raises(ValueError):
            AES128(bytes(16)).encrypt_block(bytes(8))


class TestAgainstReference:
    def test_reference_reproduces_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert reference_encrypt(key, block).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_sbox_matches_reference(self):
        assert list(SBOX) == REFERENCE_SBOX

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_encrypt_block_matches_reference(self, key, block):
        assert AES128(key).encrypt_block(block) == reference_encrypt(key, block)


class TestRoundTrip:
    @given(st.binary(min_size=16, max_size=16))
    def test_encryption_changes_the_block(self, block):
        cipher = AES128(b"\x01" * 16)
        assert cipher.encrypt_block(block) != block


class TestXorBytes:
    def test_xor(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")
