"""OpenSSL's exponentiation is ``pow``: same integers, checked inputs, and
the Schnorr signatures on top of it are the ones ``pow`` gave."""

import ctypes
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import modexp
from repro.crypto.modexp import mod_exp
from repro.crypto.sealing import MODP_P
from repro.crypto.signatures import GENERATOR, GROUP_ORDER, Signature, SigningKey, verify

Q = GROUP_ORDER
EDGE_EXPONENTS = [0, 1, Q - 1, Q, MODP_P - 1, (1 << 2048) - 1]
EDGE_BASES = [0, 1, 2, GENERATOR, Q, MODP_P - 1]

# any width up to the modulus's, not just the near-2048-bit draws a flat range gives
exponents = st.integers(0, 2048).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


class TestIsPow:
    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS, ids=["0", "1", "q-1", "q", "p-1", "2^2048-1"])
    @pytest.mark.parametrize("base", EDGE_BASES, ids=["0", "1", "2", "g", "q", "p-1"])
    def test_edges(self, base, exponent):
        assert mod_exp(base, exponent) == pow(base, exponent, MODP_P)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, MODP_P - 1), exponents)
    @example(GENERATOR, 0)
    @example(GENERATOR, 1)
    @example(GENERATOR, Q - 1)
    @example(GENERATOR, Q)
    @example(GENERATOR, MODP_P - 1)
    def test_any_base_any_exponent(self, base, exponent):
        assert mod_exp(base, exponent) == pow(base, exponent, MODP_P)

    def test_one_exponentiation_is_one_call_under_the_gil(self):
        assert type(modexp._libcrypto) is ctypes.PyDLL


@pytest.fixture
def c_unreachable(monkeypatch):
    """Any allocation in OpenSSL from here on fails the test."""

    def refuse(*args):
        raise AssertionError("OpenSSL was reached")

    for name in ("_bn_bin2bn", "_bn_new", "_ctx_new", "_mod_exp"):
        monkeypatch.setattr(modexp, name, refuse)


class TestHostileInputsNeverReachC:
    @pytest.mark.parametrize(
        "base, exponent",
        [(True, 5), (4, True), (False, 0), (4.0, 5), (4, 5.0), (b"\x04", 5), (4, b"\x05")],
        ids=["bool base", "bool exponent", "bool zero", "float base", "float exponent",
             "bytes base", "bytes exponent"],
    )
    def test_anything_but_an_exact_int_is_a_type_error(self, c_unreachable, base, exponent):
        with pytest.raises(TypeError, match="mod_exp takes int"):
            mod_exp(base, exponent)

    def test_an_int_subclass_is_refused(self, c_unreachable):
        class Lying(int):
            def bit_length(self):
                return 1

        with pytest.raises(TypeError, match="mod_exp takes int"):
            mod_exp(4, Lying(1 << 3000))

    @pytest.mark.parametrize(
        "base", [-1, -MODP_P, MODP_P, MODP_P + 1, 1 << 2048], ids=["-1", "-p", "p", "p+1", "2^2048"]
    )
    def test_a_base_outside_the_group_is_refused(self, c_unreachable, base):
        with pytest.raises(ValueError, match="base outside"):
            mod_exp(base, 5)

    @pytest.mark.parametrize(
        "exponent", [-1, -Q, 1 << 2048, 1 << 200_000], ids=["-1", "-q", "2^2048", "2^200000"]
    )
    def test_an_exponent_outside_the_range_is_refused(self, c_unreachable, exponent):
        with pytest.raises(ValueError, match="exponent outside"):
            mod_exp(4, exponent)


class TestReturnCodes:
    """Every OpenSSL failure is an exception, and nothing allocated leaks."""

    @pytest.fixture
    def ledger(self, monkeypatch):
        live = {"bignums": set(), "contexts": set()}

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

        monkeypatch.setattr(modexp, "_bn_bin2bn", tracking("bignums", modexp._bn_bin2bn))
        monkeypatch.setattr(modexp, "_bn_new", tracking("bignums", modexp._bn_new))
        monkeypatch.setattr(modexp, "_ctx_new", tracking("contexts", modexp._ctx_new))
        def no_null(original):
            def wrapper(*pointers):
                if not all(pointers):  # OpenSSL would dereference it
                    raise AssertionError("a NULL pointer reached BN_mod_exp_mont_consttime")
                return original(*pointers)

            return wrapper

        monkeypatch.setattr(modexp, "_bn_clear_free", releasing("bignums", modexp._bn_clear_free))
        monkeypatch.setattr(modexp, "_ctx_free", releasing("contexts", modexp._ctx_free))
        monkeypatch.setattr(modexp, "_mod_exp", no_null(modexp._mod_exp))
        return live

    def test_a_success_frees_everything(self, ledger):
        assert mod_exp(GENERATOR, Q - 1) == pow(GENERATOR, Q - 1, MODP_P)
        assert ledger == {"bignums": set(), "contexts": set()}

    @pytest.mark.parametrize(
        "name, failing, error",
        [
            pytest.param("_mod_exp", lambda *args: 0, "BN_mod_exp_mont_consttime", id="mod_exp"),
            pytest.param("_bn_bn2binpad", lambda *args: -1, "BN_bn2binpad", id="bn2binpad"),
            pytest.param("_bn_new", lambda: None, "BN_new", id="BN_new"),
            pytest.param("_ctx_new", lambda: None, "BN_CTX_new", id="BN_CTX_new"),
        ],
    )
    def test_a_failed_call_raises_and_frees(self, monkeypatch, ledger, name, failing, error):
        monkeypatch.setattr(modexp, name, failing)
        with pytest.raises((RuntimeError, MemoryError), match=f"{error} failed"):
            mod_exp(GENERATOR, 5)
        assert ledger == {"bignums": set(), "contexts": set()}

    def test_a_failed_conversion_raises_and_frees(self, monkeypatch, ledger):
        real = modexp._bn_bin2bn
        calls = []

        def second_fails(*args):
            calls.append(args)
            return real(*args) if len(calls) == 1 else None

        monkeypatch.setattr(modexp, "_bn_bin2bn", second_fails)
        with pytest.raises(MemoryError, match="BN_bin2bn failed"):
            mod_exp(GENERATOR, 5)
        assert len(calls) == 2
        assert ledger == {"bignums": set(), "contexts": set()}

    def test_a_missing_symbol_is_an_import_error_naming_it(self):
        with pytest.raises(ImportError, match="BN_no_such_function"):
            modexp._bind("BN_no_such_function", None)


class TestSchnorrKnownAnswer:
    """Recorded with CPython's ``pow`` under every exponentiation: a seeded
    key's public key and a seeded signature must not move."""

    SECRET = int(
        "4f019aaa16373798750c396ae4c4fcb720cf3703bf4e258f1d4fb0b7400d2a69"
        "1a3a2eca79bc971e25627009064abb418124660c9d5a8bd9fe3fccd4f59c2585",
        16,
    )
    PUBLIC = int(
        "4fee2170a71f0949cab6f4dc344122308c8015e54bbd75671c2b8ea41831cf0f"
        "840719befc619fbb6e29a7d8f5a9a02fd087931dbf6efdae90d25c7a1688118a"
        "fd6bc73aac17a0a728b69db07883c4cadfb50897334629ae6989d4de4e98c6e8"
        "19c80417566c12d28a3219ff074ecdb71ed514b1d2d162626e04c9f8a7b6cfff"
        "cdc83ce7342d3291825fee01f49315f8890fdb5c91748664fa1980715ac39518"
        "75007cf5f1320eec9eba71749559958ba8ea6c31bf3553b1229589305df33df9"
        "768280952154dfd95f8fb151f32f8dc267fb0dbd86c92f4048ec3b155676832e"
        "7a7c07631fd773efe5a1d1ba16267f88637b9e25cfcefd54b2ddc7191db51ae4",
        16,
    )
    COMMITMENT = int(
        "38c70afb8d63829f92356d63e6d4d6530f096ac8bfa2b7b207d026b5e62e22d6"
        "0ff64024e537c0e14ba534c177db2a76006041d3f8e1f085d5fbaa5986d302e3"
        "3f1dbbf267ca6dff8f07e4923c04240567d7b53f742eb702a4b8133934c20edf"
        "5430d360ffb4518510301248ef2b73f22376227f12ee2ab042d704436443fcb2"
        "e16e8925f5ce1d632be955504d81397b8e15e1b0eb8d28a6b2029cc03ff000a9"
        "a9009397b86f9f75b9843e93258d99993a140a8924c0b9025782e8a13ec20d3f"
        "825bf00f1f9dec4d2096f9f29168eb18b017151f7e51c8b24af39ed36ead12f5"
        "6bb47b5bb5e451eef54132dc672c2d41af4d2e8bb93493508444df55d62db241",
        16,
    )
    RESPONSE = int(
        "30c31a0fa23145dac0827d679e68ec537b20ec769eb49728e61948fc9ea3737b"
        "eaea525f30226cfca6d87ec50ba5454edd4cbd0eb57b6802b97c5420002284c1"
        "90b9c3615215e4b793e621c241eabb796e4977f375cde39e110caa8db75a18d2"
        "445ba93d4cbf8791949a68ae836bf80c644154acde0836d218dc13e4c0954361"
        "ca4084666c13ceae590b969b6c8186681ba3500e0234b3d85dc1464412def708"
        "e73e1cbbb990ba3c3a263d1be05d2991b7bc4e7a1d023835c3f6af27f3ec9882"
        "5d887e28572107c45c0dddca7ac635c632a3c4fb0e697f1ce50041968f0beee4"
        "05e15d32800d56afcb0f781511bdd2db859e382c74f6f06fc961718df9f34f65",
        16,
    )
    MESSAGE = b"hummingbird kat"

    def test_seeded_key(self):
        key = SigningKey.generate(random.Random(38))
        assert key.secret == self.SECRET
        assert key.public == self.PUBLIC

    def test_seeded_signature(self):
        signature = SigningKey(self.SECRET).sign(self.MESSAGE, random.Random(39))
        assert signature == Signature(commitment=self.COMMITMENT, response=self.RESPONSE)
        assert verify(self.PUBLIC, self.MESSAGE, signature)
        assert not verify(self.PUBLIC, self.MESSAGE + b"!", signature)


class TestSchnorrIsPow:
    @pytest.mark.parametrize(
        "secret",
        [1, 5, GROUP_ORDER - 1, random.Random(3).randrange(1, GROUP_ORDER)],
        ids=["1", "5", "q-1", "seeded"],
    )
    def test_signing_key_public(self, secret):
        assert SigningKey(secret).public == pow(GENERATOR, secret, MODP_P)

    def test_signature_commitment(self):
        class Fixed:
            def randrange(self, start, stop):
                return stop - 2

        signature = SigningKey(5).sign(b"m", Fixed())
        assert signature.commitment == pow(GENERATOR, GROUP_ORDER - 2, MODP_P)
        assert verify(SigningKey(5).public, b"m", signature)

    def test_an_address_recorded_before_short_secrets(self):
        """Every key, and so every address, ciphertext, gas figure and
        simulated latency draw of a seeded run, is the one ``pow`` gave.
        The recording predates short secrets: its key is the full-width
        secret ``Account.generate(random.Random(12))`` drew then."""
        from repro.ledger.accounts import Account

        secret = random.Random(12).randrange(1, GROUP_ORDER)
        assert (
            Account(SigningKey(secret)).address
            == "a3831b24223f25cc67179fd4b425151ac1ca43268871eb9161f11590a94013a2"
        )

    def test_a_generated_address_is_the_hash_of_pow(self):
        from repro.ledger.accounts import Account, address_of

        account = Account.generate(random.Random(12))
        expected = address_of(pow(GENERATOR, account.signing_key.secret, MODP_P))
        assert account.address == expected

    def test_verify_refuses_an_int_subclass_rather_than_raising(self):
        class Lying(int):
            pass

        key = SigningKey.generate(random.Random(40))
        signature = key.sign(b"m", random.Random(41))
        assert verify(key.public, b"m", signature)
        assert not verify(Lying(key.public), b"m", signature)
        forged = Signature(commitment=signature.commitment, response=Lying(signature.response))
        assert not verify(key.public, b"m", forged)
