"""Ed25519 account signatures on OpenSSL: RFC 8032's vectors, a pure-Python
RFC 8032 oracle over random seeds and messages, one hostile table run
against both :func:`verify` and ``asset.register_as``, and the binding's
return codes and frees."""

import ctypes
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.crypto import rfc8032

from repro.crypto import signatures
from repro.crypto.signatures import SigningKey, verify
from repro.scion.addresses import IsdAs

# RFC 8032 §7.1, TEST 1-3: (secret key, public key, message, signature)
RFC8032_VECTORS = [
    pytest.param(
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        id="TEST 1",
    ),
    pytest.param(
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        id="TEST 2",
    ),
    pytest.param(
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        id="TEST 3",
    ),
]


class TestRfc8032Vectors:
    @pytest.mark.parametrize("seed, public, message, signature", RFC8032_VECTORS)
    def test_the_binding(self, seed, public, message, signature):
        key = SigningKey(bytes.fromhex(seed))
        assert key.public.hex() == public
        assert key.sign(bytes.fromhex(message)).hex() == signature
        assert verify(bytes.fromhex(public), bytes.fromhex(message), bytes.fromhex(signature))

    @pytest.mark.parametrize("seed, public, message, signature", RFC8032_VECTORS)
    def test_the_oracle(self, seed, public, message, signature):
        seed, message = bytes.fromhex(seed), bytes.fromhex(message)
        assert rfc8032.public_key(seed).hex() == public
        assert rfc8032.sign(seed, message).hex() == signature
        assert rfc8032.verify(bytes.fromhex(public), message, bytes.fromhex(signature))


class TestAgainstTheOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=200), st.integers(0, 511))
    def test_keys_signatures_and_verdicts_agree(self, seed, message, bit):
        key = SigningKey(seed)
        public, signature = key.public, key.sign(message)
        assert public == rfc8032.public_key(seed)
        assert signature == rfc8032.sign(seed, message)
        assert verify(public, message, signature) and rfc8032.verify(public, message, signature)
        flipped = bytearray(signature)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped = bytes(flipped)
        assert not verify(public, message, flipped)
        assert not rfc8032.verify(public, message, flipped)
        assert not verify(public, message + b"!", signature)
        assert not rfc8032.verify(public, message + b"!", signature)

    def test_the_small_order_keys_are_the_ones_the_oracle_enumerates(self):
        assert signatures._SMALL_ORDER == frozenset(rfc8032.small_order_encodings())


# -- one hostile table for verify and asset.register_as ---------------------------

IDENTITY = (1).to_bytes(32, "little")
FORGERY = IDENTITY + bytes(32)  # R = identity, S = 0: verifies under any small-order key


class Lying(bytes):
    """Claims the right length whatever it holds."""

    def __len__(self):
        return 32 if super().__len__() < 48 else 64


def _with_s(signature: bytes, s: int) -> bytes:
    return signature[:32] + s.to_bytes(32, "little")


# (id, (key, message, signature) -> (public key, signature) sent, refused before C)
HOSTILE = [
    ("key 31 B", lambda key, m, sig: (key.public[:31], sig), True),
    ("key 33 B", lambda key, m, sig: (key.public + b"\0", sig), True),
    ("key empty", lambda key, m, sig: (b"", sig), True),
    ("key bytearray", lambda key, m, sig: (bytearray(key.public), sig), True),
    ("key bytes subclass", lambda key, m, sig: (Lying(key.public[:4]), sig), True),
    ("key int", lambda key, m, sig: (int.from_bytes(key.public, "little"), sig), True),
    ("key str", lambda key, m, sig: (key.public.hex(), sig), True),
    ("signature 63 B", lambda key, m, sig: (key.public, sig[:63]), True),
    ("signature 65 B", lambda key, m, sig: (key.public, sig + b"\0"), True),
    ("signature bytearray", lambda key, m, sig: (key.public, bytearray(sig)), True),
    ("signature bytes subclass", lambda key, m, sig: (key.public, Lying(sig[:50])), True),
    ("signature int", lambda key, m, sig: (key.public, int.from_bytes(sig, "little")), True),
    ("signature None", lambda key, m, sig: (key.public, None), True),
    ("S + L", lambda key, m, sig: (key.public, _with_s(sig, int.from_bytes(sig[32:], "little")
                                                      + rfc8032.L)), False),
    ("S = L", lambda key, m, sig: (key.public, _with_s(sig, rfc8032.L)), False),
    ("S = 2^256-1", lambda key, m, sig: (key.public, _with_s(sig, (1 << 256) - 1)), False),
    ("another sender's proof", lambda key, m, sig: (key.public, key.sign(m + b"0")), False),
    ("identity key forgery", lambda key, m, sig: (IDENTITY, FORGERY), True),
    *(
        (f"small-order key {encoding.hex()[:4]}..{encoding.hex()[-2:]}",
         lambda key, m, sig, encoding=encoding: (encoding, FORGERY), True)
        for encoding in rfc8032.small_order_encodings()
    ),
]


@pytest.fixture
def c_unreachable(monkeypatch):
    """Any call into OpenSSL's verification from here on fails the test."""

    def refuse(*args):
        raise AssertionError("OpenSSL was reached")

    for name in ("_new_public_key", "_ctx_new", "_verify_init", "_verify"):
        monkeypatch.setattr(signatures, name, refuse)


class TestHostileInputs:
    MESSAGE = b"e9e650d41689e500bb8a9f6998ba825b2c4d30ab46efe7d7f243341cdfba2173"

    @pytest.mark.parametrize("make, before_c", [case[1:] for case in HOSTILE],
                             ids=[case[0] for case in HOSTILE])
    def test_verify_says_false(self, request, make, before_c):
        key = SigningKey.generate(random.Random(44))
        public, signature = make(key, self.MESSAGE, key.sign(self.MESSAGE))
        if before_c:
            request.getfixturevalue("c_unreachable")
        assert verify(public, self.MESSAGE, signature) is False

    @pytest.mark.parametrize("message", [bytearray(b"m"), Lying(b"m"), "m", None, 7],
                             ids=["bytearray", "bytes subclass", "str", "None", "int"])
    def test_a_message_that_is_not_bytes_is_false(self, request, message):
        key = SigningKey.generate(random.Random(44))
        public, signature = key.public, key.sign(b"m")
        request.getfixturevalue("c_unreachable")
        assert verify(public, message, signature) is False

    def test_the_forgery_is_one_the_rfc_verifier_accepts(self):
        """Cofactored RFC 8032 verification takes it, for any message, under
        every small-order key the RFC decodes (eight of the fourteen): the
        refusal is this module's own."""
        canonical = [e for e in rfc8032.small_order_encodings() if rfc8032.decode(e)]
        assert len(canonical) == 8 and IDENTITY in canonical
        for encoding in canonical:
            assert rfc8032.verify(encoding, b"any message", FORGERY)

    @pytest.mark.parametrize("make, before_c", [case[1:] for case in HOSTILE],
                             ids=[case[0] for case in HOSTILE])
    def test_register_as_aborts_and_the_honest_registration_follows(self, make, before_c):
        from repro.contracts.asset import AssetContract
        from repro.controlplane.pki import CpPki
        from repro.ledger.accounts import Account
        from repro.ledger.chain import Ledger
        from repro.ledger.committee import Committee
        from repro.ledger.executor import LedgerExecutor
        from repro.ledger.transactions import Command, Transaction

        rng, ledger = random.Random(44), Ledger()
        pki = CpPki(rng)
        ledger.register_contract(AssetContract(pki))
        executor = LedgerExecutor(ledger, Committee(random.Random(44)))
        account = Account.generate(rng, "as")
        key, message = account.signing_key, account.address.encode()
        as_id = IsdAs(1, 44)

        def register(certificate, signature):
            args = {"certificate": certificate, "signature": signature}
            return executor.submit(
                Transaction(account.address, [Command("asset", "register_as", args)])
            ).effects

        public, signature = make(key, message, key.sign(message))
        if isinstance(public, (bytes, bytearray)):  # the anchor signs whatever it is handed
            certificate = pki.issue_certificate(as_id, public)
        else:
            certificate = {**pki.issue_certificate(as_id, key.public), "public_key": public}
        certified = type(public) is bytes and len(public) == 32
        before = (dict(ledger.objects), list(ledger.events))
        effects = register(certificate, signature)
        reason = "proof of possession failed" if certified else "invalid AS certificate"
        assert effects.status == "abort" and re.fullmatch(reason, effects.error), effects.error
        assert effects.created == effects.mutated == effects.deleted == effects.events == []
        assert (dict(ledger.objects), list(ledger.events)) == before

        honest = register(pki.issue_certificate(as_id, key.public), key.sign(message))
        assert honest.ok, honest.error
        assert ledger.objects[honest.returns[0]["token"]].payload["as_address"] == account.address


# -- the key itself ------------------------------------------------------------------

class TestSigningKey:
    def test_signing_is_deterministic_and_draws_nothing(self):
        key = SigningKey.generate(random.Random(45))
        assert key.sign(b"m") == key.sign(b"m") != key.sign(b"n")

    def test_a_seed_is_drawn_as_32_random_bytes(self):
        drawn = []

        class Rng:
            def randbytes(self, n):
                drawn.append(n)
                return bytes(range(n))

        assert SigningKey.generate(Rng()).seed == bytes(range(32)) and drawn == [32]

    @pytest.mark.parametrize("seed", [bytes(31), bytes(33), bytearray(32), Lying(bytes(4)), 7],
                             ids=["31 B", "33 B", "bytearray", "bytes subclass", "int"])
    def test_a_seed_is_exactly_32_bytes(self, seed):
        with pytest.raises(ValueError, match="seed is 32 bytes"):
            SigningKey(seed)

    @pytest.mark.parametrize("message", [bytearray(b"m"), Lying(b"m"), "m", None])
    def test_a_message_to_sign_is_exactly_bytes(self, message):
        with pytest.raises(TypeError, match="messages are bytes"):
            SigningKey(bytes(32)).sign(message)

    def test_memoised_public_key_is_invisible(self):
        fresh, used = SigningKey(bytes(32)), SigningKey(bytes(32))
        assert used.public is used.public  # derived once
        assert fresh == used and hash(fresh) == hash(used)
        assert repr(fresh) == repr(used) == f"SigningKey(seed={bytes(32)!r})"
        assert fresh.public == used.public == rfc8032.public_key(bytes(32))
        with pytest.raises(TypeError):
            SigningKey(bytes(32), bytes(32))  # the memo is not a constructor argument

    def test_a_seeded_address(self):
        """Every address, and so every object id, of a seeded run follows from
        this: blake2s over the public key's 32 bytes."""
        from repro.ledger.accounts import Account, address_of

        account = Account.generate(random.Random(12))
        assert account.address == address_of(account.signing_key.public) == (
            "e9e650d41689e500bb8a9f6998ba825b2c4d30ab46efe7d7f243341cdfba2173"
        )


# -- the binding: one call under the GIL, every return code, every free --------------

class TestReturnCodes:
    """Every OpenSSL failure is an exception (``False`` in :func:`verify`),
    and no ``EVP_PKEY`` or ``EVP_MD_CTX`` outlives the call."""

    KEY = SigningKey(bytes(range(32)))

    @pytest.fixture
    def live(self, monkeypatch):
        live = {"keys": set(), "contexts": set()}

        def tracking(kind, original):
            def wrapper(*args):
                pointer = original(*args)
                if pointer:
                    live[kind].add(pointer)
                return pointer

            return wrapper

        def releasing(kind, original):
            def wrapper(pointer):
                live[kind].remove(pointer)
                original(pointer)

            return wrapper

        def no_null(original):
            def wrapper(ctx, pctx, digest, engine, key):
                if not (ctx and key):  # OpenSSL would dereference it
                    raise AssertionError("a NULL pointer reached OpenSSL")
                return original(ctx, pctx, digest, engine, key)

            return wrapper

        for name in ("_new_private_key", "_new_public_key"):
            monkeypatch.setattr(signatures, name, tracking("keys", getattr(signatures, name)))
        monkeypatch.setattr(signatures, "_ctx_new", tracking("contexts", signatures._ctx_new))
        monkeypatch.setattr(signatures, "_pkey_free", releasing("keys", signatures._pkey_free))
        monkeypatch.setattr(signatures, "_ctx_free", releasing("contexts", signatures._ctx_free))
        for name in ("_sign_init", "_verify_init"):
            monkeypatch.setattr(signatures, name, no_null(getattr(signatures, name)))
        return live

    def test_one_operation_is_one_call_under_the_gil(self):
        assert type(signatures._libcrypto) is ctypes.PyDLL

    def test_a_success_frees_everything(self, live):
        key = SigningKey(self.KEY.seed)
        signature = key.sign(b"m")
        assert verify(key.public, b"m", signature)
        assert not verify(key.public, b"n", signature)
        assert live == {"keys": set(), "contexts": set()}

    @pytest.mark.parametrize(
        "name, failing, error",
        [
            pytest.param("_new_private_key", lambda *a: None, "EVP_PKEY_new_raw_private_key",
                         id="new_raw_private_key"),
            pytest.param("_get_public_key", lambda *a: 0, "EVP_PKEY_get_raw_public_key",
                         id="get_raw_public_key"),
        ],
    )
    def test_a_failed_public_key_raises_and_frees(self, monkeypatch, live, name, failing, error):
        monkeypatch.setattr(signatures, name, failing)
        with pytest.raises((MemoryError, RuntimeError), match=f"{error} failed"):
            SigningKey(self.KEY.seed).public
        assert live == {"keys": set(), "contexts": set()}

    @pytest.mark.parametrize(
        "name, failing, error",
        [
            pytest.param("_new_private_key", lambda *a: None, "EVP_PKEY_new_raw_private_key",
                         id="new_raw_private_key"),
            pytest.param("_ctx_new", lambda: None, "EVP_MD_CTX_new", id="MD_CTX_new"),
            pytest.param("_sign_init", lambda *a: 0, "EVP_DigestSignInit", id="DigestSignInit"),
            pytest.param("_sign", lambda *a: 0, "EVP_DigestSign", id="DigestSign"),
        ],
    )
    def test_a_failed_signature_raises_and_frees(self, monkeypatch, live, name, failing, error):
        monkeypatch.setattr(signatures, name, failing)
        with pytest.raises((MemoryError, RuntimeError), match=f"{error} failed"):
            self.KEY.sign(b"m")
        assert live == {"keys": set(), "contexts": set()}

    @pytest.mark.parametrize(
        "name, failing",
        [
            pytest.param("_new_public_key", lambda *a: None, id="new_raw_public_key"),
            pytest.param("_ctx_new", lambda: None, id="MD_CTX_new"),
            pytest.param("_verify_init", lambda *a: 0, id="DigestVerifyInit"),
            pytest.param("_verify", lambda *a: -1, id="DigestVerify error"),
        ],
    )
    def test_a_failed_verification_is_false_and_frees(self, monkeypatch, live, name, failing):
        signature = self.KEY.sign(b"m")
        monkeypatch.setattr(signatures, name, failing)
        assert verify(self.KEY.public, b"m", signature) is False
        assert live == {"keys": set(), "contexts": set()}

    def test_a_missing_symbol_is_an_import_error_naming_it(self):
        with pytest.raises(ImportError, match="EVP_no_such_function"):
            signatures._bind("EVP_no_such_function", None)
