import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from igusa.numeric import PrimeSpec, p_valuation

PRIMES = [2, 3, 5, 7, 11, 101]


class TestPValuation:
    def test_integers(self):
        assert p_valuation(12, 2) == 2
        assert p_valuation(5, 5) == 1
        assert p_valuation(1, 7) == 0
        assert p_valuation(-54, 3) == 3

    @pytest.mark.parametrize("base", [1, 0])
    def test_rejects_base_below_two(self, base):
        # p = 1 would divide forever and p = 0 would divide by zero
        with pytest.raises(ValueError):
            p_valuation(6, base)

    def test_zero_raises(self):
        # 0 has no finite valuation, and an int cannot stand for an infinite one
        for p in (2, 5):
            with pytest.raises(ValueError):
                p_valuation(0, p)

    @given(
        a=st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
        b=st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
        p=st.sampled_from(PRIMES),
    )
    def test_multiplicative(self, a, b, p):
        assert p_valuation(a * b, p) == p_valuation(a, p) + p_valuation(b, p)

    @given(
        a=st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
        b=st.integers(min_value=-(10**6), max_value=10**6).filter(lambda x: x != 0),
        p=st.sampled_from(PRIMES),
    )
    def test_ultrametric(self, a, b, p):
        assume(a + b != 0)
        lhs = p_valuation(a + b, p)
        rhs = min(p_valuation(a, p), p_valuation(b, p))
        assert lhs >= rhs

    @given(
        u=st.integers(min_value=1, max_value=10**4),
        k=st.integers(min_value=0, max_value=12),
        p=st.sampled_from(PRIMES),
    )
    def test_exact_power_shift(self, u, k, p):
        if u % p == 0:
            u += 1
            if u % p == 0:
                u += p - 1
        assert p_valuation(p**k * u, p) == k


    def test_matches_division_one_at_a_time(self):
        rng = random.Random(2024)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 101, 2**61 - 1])
            e = rng.choice([0, 1, 2, 3, rng.randrange(300)])
            unit = rng.randrange(1, 10**9) * rng.choice([1, -1])
            x = p**e * unit
            v, rest = 0, abs(x)
            while rest % p == 0:
                rest //= p
                v += 1
            assert p_valuation(x, p) == v

    def test_unit_takes_one_modulo(self):
        class Counted(int):
            mods = 0

            def __mod__(self, other):
                Counted.mods += 1
                return int(self) % other

        assert p_valuation(Counted(12), 5) == 0
        assert Counted.mods == 1

    def test_large_valuation(self):
        # a valuation of 2 * 10^5 took 9 s when p was divided out one at a time
        assert p_valuation(3 * 2**200000, 2) == 200000


class TestPrimeSpec:
    @pytest.mark.parametrize("bad", [0, 1, 4, 9, -3, 100])
    def test_rejects_nonprime(self, bad):
        with pytest.raises(ValueError):
            PrimeSpec(bad)

    @pytest.mark.parametrize("good", [2, 3, 5, 7, 101, 46337])
    def test_accepts_primes(self, good):
        assert PrimeSpec(good).p == good
