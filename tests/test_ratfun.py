from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igusa.ratfun import (
    PowerSeries,
    RationalZeta,
    check_recurrence,
    denominator_polynomial,
    divide_out_factor,
    expand,
    recover_numerator,
    reduce_factors,
    series_times_denominator,
)

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=8
)
factor_st = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3)
)


class TestDenominatorPolynomial:
    def test_single_factor(self):
        assert denominator_polynomial([(1, 1)], 5) == [Fraction(1), Fraction(-1, 5)]

    def test_product_of_two(self):
        # (1 - t/5)(1 - t^2/25) = 1 - t/5 - t^2/25 + t^3/125
        out = denominator_polynomial([(1, 1), (2, 2)], 5)
        assert out == [
            Fraction(1),
            Fraction(-1, 5),
            Fraction(-1, 25),
            Fraction(1, 125),
        ]

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            denominator_polynomial([(1, 0)], 5)
        with pytest.raises(ValueError):
            denominator_polynomial([(-1, 2)], 5)

    def test_zero_q_power_is_legal(self):
        # (0, 1) encodes 1 - t, which is a valid factor
        assert denominator_polynomial([(0, 1)], 5) == [Fraction(1), Fraction(-1)]


class TestPowerSeries:
    def test_coeff_and_depth(self):
        s = PowerSeries((Fraction(1), Fraction(1, 2)))
        assert s.depth == 1  # highest stored index, not the count
        assert s.coeff(0) == 1
        assert s.coeff(1) == Fraction(1, 2)
        with pytest.raises(IndexError):
            s.coeff(2)

    def test_subtract(self):
        s = PowerSeries((Fraction(1), Fraction(2), Fraction(3)))
        d = s - PowerSeries((Fraction(1), Fraction(1), Fraction(1)))
        assert d.coefficients == (Fraction(0), Fraction(1), Fraction(2))


class TestRationalZeta:
    def test_factor_order_is_canonical(self):
        a = RationalZeta((Fraction(1),), ((2, 3), (1, 1)), 5)
        b = RationalZeta((Fraction(1),), ((1, 1), (2, 3)), 5)
        assert a == b
        assert hash(a) == hash(b)

    def test_cross_multiplied_equality(self):
        # P/(1-t/5) equals P*(1-t^2/25) / ((1-t/5)(1-t^2/25))
        p = (Fraction(2), Fraction(1, 3))
        a = RationalZeta(p, ((1, 1),), 5)
        extra = denominator_polynomial([(2, 2)], 5)
        num = [Fraction(0)] * (len(p) + len(extra) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(extra):
                num[i + j] += x * y
        b = RationalZeta(tuple(num), ((1, 1), (2, 2)), 5)
        assert a == b

    def test_inequality(self):
        a = RationalZeta((Fraction(1),), ((1, 1),), 5)
        b = RationalZeta((Fraction(2),), ((1, 1),), 5)
        assert a != b

    def test_evaluate(self):
        z = RationalZeta((Fraction(4, 5),), ((1, 1),), 5)
        assert z.evaluate(Fraction(0)) == Fraction(4, 5)
        assert z.evaluate(Fraction(1)) == Fraction(4, 5) / (1 - Fraction(1, 5))

    def test_as_dict(self):
        z = RationalZeta((Fraction(4, 5),), ((1, 1),), 5)
        d = z.as_dict()
        assert d["q"] == 5
        assert d["numerator"] == ["4/5"]
        assert d["denominator_factors"] == [[1, 1]]


class TestExpand:
    def test_geometric(self):
        z = RationalZeta((Fraction(1),), ((1, 1),), 5)
        s = expand(z, 5)
        assert s.coefficients == tuple(Fraction(1, 5**m) for m in range(6))

    def test_sparse_factor(self):
        z = RationalZeta((Fraction(1),), ((5, 6),), 5)
        s = expand(z, 12)
        expected = [Fraction(0)] * 13
        expected[0] = Fraction(1)
        expected[6] = Fraction(1, 5**5)
        expected[12] = Fraction(1, 5**10)
        assert list(s.coefficients) == expected

    def test_numerator_shifts(self):
        z = RationalZeta((Fraction(0), Fraction(1),), ((1, 1),), 3)
        s = expand(z, 3)
        assert list(s.coefficients) == [0, 1, Fraction(1, 3), Fraction(1, 9)]

    @given(
        num=st.lists(fracs, min_size=1, max_size=4),
        factors=st.lists(factor_st, min_size=1, max_size=3),
        q=st.sampled_from([2, 3, 5]),
    )
    def test_series_times_denominator_recovers_numerator(self, num, factors, q):
        z = RationalZeta(tuple(num), tuple(factors), q)
        depth = len(num) + sum(b for _, b in factors) + 3
        s = expand(z, depth)
        prod = series_times_denominator(s, z.denominator_factors, q)
        padded = list(num) + [Fraction(0)] * (depth + 1 - len(num))
        assert prod == padded


class TestCheckRecurrence:
    def test_accepts_true_expansion(self):
        z = RationalZeta((Fraction(2), Fraction(-1, 3)), ((1, 1), (2, 1)), 3)
        s = expand(z, 10)
        assert check_recurrence(s, z.denominator_factors, 3, start=2)

    def test_rejects_perturbed_expansion(self):
        z = RationalZeta((Fraction(2),), ((1, 1),), 3)
        s = expand(z, 10)
        bad = list(s.coefficients)
        bad[7] += Fraction(1, 99)
        assert not check_recurrence(PowerSeries(tuple(bad)), z.denominator_factors, 3, start=1)


class TestRecoverNumerator:
    def test_exact_recovery(self):
        z = RationalZeta((Fraction(4, 5), Fraction(1, 25)), ((1, 1), (5, 6)), 5)
        s = expand(z, 12)
        res = recover_numerator(s, z.denominator_factors, 5, max_deg=3)
        assert res.ok
        assert res.numerator == (Fraction(4, 5), Fraction(1, 25))
        assert res.rational(z.denominator_factors, 5) == z

    def test_failure_reports_residuals(self):
        z = RationalZeta((Fraction(1), Fraction(0), Fraction(1)), ((1, 1),), 5)
        s = expand(z, 8)
        res = recover_numerator(s, z.denominator_factors, 5, max_deg=1)
        assert not res.ok
        assert res.residuals
        assert all(r != 0 for _, r in res.residuals)

    def test_requires_residual_window(self):
        with pytest.raises(ValueError):
            recover_numerator(PowerSeries((Fraction(1),)), ((1, 1),), 5, max_deg=3)

    @settings(max_examples=60)
    @given(
        num=st.lists(fracs, min_size=1, max_size=4),
        factors=st.lists(factor_st, min_size=1, max_size=2),
        q=st.sampled_from([2, 3, 5]),
    )
    def test_round_trip(self, num, factors, q):
        num = tuple(num)
        factors = tuple(factors)
        z = RationalZeta(num, factors, q)
        max_deg = len(num) - 1
        depth = max_deg + sum(b for _, b in factors) + 2
        s = expand(z, depth)
        res = recover_numerator(s, factors, q, max_deg=max_deg)
        assert res.ok
        assert res.rational(factors, q) == z


class TestDivideOutFactor:
    def test_exact_division(self):
        # (4/5)*(1 - t/9) divided by (2,1) at q=3 leaves (4/5)
        num = (Fraction(4, 5), Fraction(-4, 45))
        quotient = divide_out_factor(num, (2, 1), 3)
        assert quotient == (Fraction(4, 5),)

    def test_inexact_returns_none(self):
        assert divide_out_factor((Fraction(1),), (1, 1), 5) is None
        assert divide_out_factor((Fraction(1), Fraction(1)), (1, 1), 5) is None

    def test_zero_numerator(self):
        assert divide_out_factor((), (1, 1), 5) == ()

    @given(
        num=st.lists(fracs, min_size=1, max_size=3),
        factor=factor_st,
        q=st.sampled_from([2, 3, 5]),
    )
    def test_multiply_then_divide(self, num, factor, q):
        den = denominator_polynomial([factor], q)
        prod = [Fraction(0)] * (len(num) + len(den) - 1)
        for i, x in enumerate(num):
            for j, y in enumerate(den):
                prod[i + j] += x * y
        quotient = divide_out_factor(tuple(prod), factor, q)
        trimmed = list(num)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert quotient == tuple(trimmed)


class TestReduceFactors:
    def test_cancels_embedded_factor(self):
        # numerator (2/3)*(1 - t/9) over (1-t/3)(1-t/9)
        num = (Fraction(2, 3), Fraction(-2, 27))
        z = RationalZeta(num, ((1, 1), (2, 1)), 3)
        result = reduce_factors(z)
        assert result.cancelled == ((2, 1),)
        assert result.surviving == ((1, 1),)
        assert result.reduced.numerator == (Fraction(2, 3),)
        assert result.surviving_poles() == (Fraction(-1),)

    def test_nothing_cancels(self):
        z = RationalZeta((Fraction(4, 5), Fraction(1, 25)), ((1, 1), (5, 6)), 5)
        result = reduce_factors(z)
        assert result.cancelled == ()
        assert set(result.surviving_poles()) == {Fraction(-1), Fraction(-5, 6)}

    def test_reduction_preserves_value(self):
        num = (Fraction(2, 3), Fraction(-2, 27))
        z = RationalZeta(num, ((1, 1), (2, 1)), 3)
        result = reduce_factors(z)
        assert result.reduced == z
