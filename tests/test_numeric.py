from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from igusa.numeric import INFINITE, PrimeSpec, p_valuation, valuation_min

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

    def test_zero_is_infinite(self):
        assert p_valuation(0, 5) is INFINITE
        assert p_valuation(Fraction(0), 3) is INFINITE

    def test_fractions(self):
        assert p_valuation(Fraction(3, 4), 2) == -2
        assert p_valuation(Fraction(1, 5), 5) == -1
        assert p_valuation(Fraction(50, 7), 5) == 2

    @given(
        a=st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
        b=st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
        p=st.sampled_from(PRIMES),
    )
    def test_multiplicative(self, a, b, p):
        assert p_valuation(a * b, p) == p_valuation(a, p) + p_valuation(b, p)

    @given(
        a=st.integers(min_value=-(10**6), max_value=10**6),
        b=st.integers(min_value=-(10**6), max_value=10**6),
        p=st.sampled_from(PRIMES),
    )
    def test_ultrametric(self, a, b, p):
        lhs = p_valuation(a + b, p)
        rhs = valuation_min([p_valuation(a, p), p_valuation(b, p)])
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


class TestInfinite:
    def test_ordering(self):
        assert INFINITE > 10**18
        assert INFINITE >= 0
        assert not (INFINITE < 5)
        assert INFINITE == INFINITE
        assert not (INFINITE < INFINITE)
        assert INFINITE <= INFINITE

    def test_absorbing_addition(self):
        assert INFINITE + 3 is INFINITE
        assert INFINITE + INFINITE is INFINITE

    def test_valuation_min(self):
        assert valuation_min([INFINITE, 2, 5]) == 2
        assert valuation_min([INFINITE, INFINITE]) is INFINITE


class TestPrimeSpec:
    def test_q_equals_p(self):
        spec = PrimeSpec(7)
        assert spec.p == 7
        assert spec.q == 7

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, -3, 100])
    def test_rejects_nonprime(self, bad):
        with pytest.raises(ValueError):
            PrimeSpec(bad)

    @pytest.mark.parametrize("good", [2, 3, 5, 7, 101, 46337])
    def test_accepts_primes(self, good):
        assert PrimeSpec(good).p == good
