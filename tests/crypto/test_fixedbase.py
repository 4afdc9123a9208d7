"""The fixed-base comb is ``pow``: same integers, narrower domain."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import sealing
from repro.crypto.fixedbase import TEETH, FixedBase
from repro.crypto.sealing import MODP_G, MODP_P, KeyPair

# (base, exponent width, the module's own instance)
INSTANCES = {
    "sealing": (MODP_G, sealing._SECRET_BITS, sealing._G_POW),
}


def edge_exponents(bits: int) -> list[int]:
    """0, 1, the top of the range, and both sides of every boundary between
    two rows of the comb."""
    columns = -(-bits // TEETH)
    edges = {0, 1, (1 << bits) - 1, (1 << bits) - 2, 1 << (bits - 1)}
    for row in range(1, TEETH):
        boundary = 1 << (columns * row)
        if boundary >> bits:
            break
        edges |= {boundary - 1, boundary, boundary + 1}
    return sorted(edges)


@pytest.mark.parametrize("name", INSTANCES)
class TestCombIsPow:
    def test_edges(self, name):
        base, bits, comb_pow = INSTANCES[name]
        for exponent in edge_exponents(bits):
            assert comb_pow(exponent) == pow(base, exponent, MODP_P), exponent

    def test_any_exponent_in_range(self, name):
        base, bits, comb_pow = INSTANCES[name]

        @settings(max_examples=60, deadline=None)
        @given(st.integers(min_value=0, max_value=(1 << bits) - 1))
        @example(0)
        @example((1 << bits) - 1)
        def check(exponent):
            assert comb_pow(exponent) == pow(base, exponent, MODP_P)

        check()

    def test_sparse_exponents_skip_columns_and_still_agree(self, name):
        base, bits, comb_pow = INSTANCES[name]
        rng = random.Random(21)
        for _ in range(20):
            exponent = sum(1 << rng.randrange(bits) for _ in range(3))
            assert comb_pow(exponent) == pow(base, exponent, MODP_P)

    @pytest.mark.parametrize("bad", ["negative", "one bit too wide", "far too wide"])
    def test_an_exponent_outside_the_table_is_refused_not_truncated(self, name, bad):
        _, bits, comb_pow = INSTANCES[name]
        exponent = {
            "negative": -1,
            "one bit too wide": 1 << bits,
            "far too wide": 1 << 200_000,
        }[bad]
        with pytest.raises(ValueError, match="exponent outside"):
            comb_pow(exponent)


class TestOtherShapes:
    """Nothing in the class knows the repository's group."""

    @pytest.mark.parametrize("bits", [1, TEETH - 1, TEETH, TEETH + 1, 64, 100])
    def test_small_modulus_every_width(self, bits):
        modulus = (1 << 61) - 1
        comb = FixedBase(7, modulus, bits)
        rng = random.Random(bits)
        for exponent in [0, 1, (1 << bits) - 1, *(rng.randrange(1 << bits) for _ in range(50))]:
            assert comb.pow(exponent) == pow(7, exponent, modulus)
        with pytest.raises(ValueError):
            comb.pow(1 << bits)

    def test_base_larger_than_the_modulus(self):
        assert FixedBase(1000, 7, 16).pow(12345) == pow(1000, 12345, 7)


class TestCallersAreBitIdentical:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_keypairs(self, seed):
        key = KeyPair.generate(random.Random(seed))
        assert key.public == pow(MODP_G, key.secret, MODP_P).to_bytes(256, "big")
