from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from igusa.ratfun import (
    RationalZeta,
    _denominator_ints,
    expand,
    poles,
    recover_numerator,
    reduce_factors,
)

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=8
)
factor_st = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3)
)


def _denominator_fractions(factors, q):
    """prod (1 - q^(-A) t^B) in Fractions, from ``_denominator_ints``."""
    poly, scale = _denominator_ints(factors, q)
    return [Fraction(c, scale) for c in poly]


class TestDenominatorPolynomial:
    # ``_denominator_ints`` gives prod (q^A - t^B): the polynomial times the scale q^(sum A)
    def test_single_factor(self):
        assert _denominator_ints([(1, 1)], 5) == ([5, -1], 5)

    def test_product_of_two(self):
        # (1 - t/5)(1 - t^2/25) = 1 - t/5 - t^2/25 + t^3/125, times 125
        assert _denominator_ints([(1, 1), (2, 2)], 5) == ([125, -25, -5, 1], 125)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            _denominator_ints([(1, 0)], 5)
        with pytest.raises(ValueError):
            _denominator_ints([(-1, 2)], 5)

    def test_zero_q_power_is_legal(self):
        # (0, 1) encodes 1 - t, which is a valid factor
        assert _denominator_ints([(0, 1)], 5) == ([1, -1], 1)


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
        extra = _denominator_fractions([(2, 2)], 5)
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

    def test_equal_values_hash_equal(self):
        # 1/(1 - t) and (1 + t)/(1 - t^2): equal, though stored differently
        a = RationalZeta((1,), ((0, 1),), 5)
        b = RationalZeta((1, 1), ((0, 2),), 5)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

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
        assert s == tuple(Fraction(1, 5**m) for m in range(6))

    def test_index_past_depth_raises(self):
        s = expand(RationalZeta((Fraction(1),), ((1, 1),), 5), 1)
        assert len(s) - 1 == 1  # the depth is the highest stored index
        assert s[1] == Fraction(1, 5)
        with pytest.raises(IndexError):  # no zero is invented past it
            s[2]

    def test_negative_depth_refused(self):
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            expand(RationalZeta((Fraction(1),), ((1, 1),), 5), -1)

    def test_sparse_factor(self):
        z = RationalZeta((Fraction(1),), ((5, 6),), 5)
        s = expand(z, 12)
        expected = [Fraction(0)] * 13
        expected[0] = Fraction(1)
        expected[6] = Fraction(1, 5**5)
        expected[12] = Fraction(1, 5**10)
        assert list(s) == expected

    def test_numerator_shifts(self):
        z = RationalZeta((Fraction(0), Fraction(1),), ((1, 1),), 3)
        s = expand(z, 3)
        assert list(s) == [0, 1, Fraction(1, 3), Fraction(1, 9)]


class TestRecoverNumerator:
    def test_exact_recovery(self):
        z = RationalZeta((Fraction(4, 5), Fraction(1, 25)), ((1, 1), (5, 6)), 5)
        s = expand(z, 12)
        res = recover_numerator(s, z.denominator_factors, 5, max_deg=3)
        assert res.ok
        assert res.numerator == (Fraction(4, 5), Fraction(1, 25))
        assert RationalZeta(res.numerator, z.denominator_factors, 5) == z

    @given(
        num=st.lists(fracs, min_size=1, max_size=4),
        factors=st.lists(factor_st, min_size=1, max_size=3),
        q=st.sampled_from([2, 3, 5]),
    )
    def test_times_denominator_gives_the_numerator(self, num, factors, q):
        # with max_deg = depth - 1 the product is returned through t^(depth-1)
        # and checked at t^depth, so it must be the numerator, zero-padded
        z = RationalZeta(tuple(num), tuple(factors), q)
        depth = len(num) + sum(b for _, b in factors) + 3
        res = recover_numerator(expand(z, depth), z.denominator_factors, q, max_deg=depth - 1)
        assert res.ok
        assert res.numerator == z.numerator

    def test_failure_reports_residuals(self):
        z = RationalZeta((Fraction(1), Fraction(0), Fraction(1)), ((1, 1),), 5)
        s = expand(z, 8)
        res = recover_numerator(s, z.denominator_factors, 5, max_deg=1)
        assert not res.ok
        assert res.residuals
        assert all(r != 0 for _, r in res.residuals)

    def test_rejects_perturbed_expansion(self):
        z = RationalZeta((Fraction(2),), ((1, 1),), 3)
        s = expand(z, 10)
        bad = list(s)
        bad[7] += Fraction(1, 99)
        res = recover_numerator(tuple(bad), z.denominator_factors, 3, max_deg=0)
        assert not res.ok
        assert res.residuals == ((7, Fraction(1, 99)), (8, Fraction(-1, 297)))

    def test_requires_residual_window(self):
        with pytest.raises(ValueError, match="leaves no residual coefficients"):
            recover_numerator((Fraction(1),), ((1, 1),), 5, max_deg=3)
        with pytest.raises(ValueError, match="^max_deg must be >= 0$"):
            recover_numerator((Fraction(1), Fraction(0)), ((1, 1),), 5, max_deg=-1)

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
        assert RationalZeta(res.numerator, factors, q) == z


class TestDivideOutFactor:
    """reduce_factors on one factor: it cancels exactly when it divides."""

    def test_exact_division(self):
        # (4/5)*(1 - t/9) divided by (2,1) at q=3 leaves (4/5)
        result = reduce_factors(RationalZeta((Fraction(4, 5), Fraction(-4, 45)), ((2, 1),), 3))
        assert result.cancelled == ((2, 1),)
        assert result.reduced.numerator == (Fraction(4, 5),)

    @pytest.mark.parametrize("num", [(Fraction(1),), (Fraction(1), Fraction(1))])
    def test_inexact_survives(self, num):
        result = reduce_factors(RationalZeta(num, ((1, 1),), 5))
        assert (result.cancelled, result.surviving) == ((), ((1, 1),))
        assert result.reduced.numerator == num

    def test_zero_numerator(self):
        result = reduce_factors(RationalZeta((), ((1, 1),), 5))
        assert result.cancelled == ((1, 1),)
        assert result.reduced.numerator == ()

    @given(
        num=st.lists(fracs, min_size=1, max_size=3),
        factor=factor_st,
        q=st.sampled_from([2, 3, 5]),
    )
    def test_multiply_then_divide(self, num, factor, q):
        den = _denominator_fractions([factor], q)
        prod = [Fraction(0)] * (len(num) + len(den) - 1)
        for i, x in enumerate(num):
            for j, y in enumerate(den):
                prod[i + j] += x * y
        result = reduce_factors(RationalZeta(tuple(prod), (factor,), q))
        trimmed = list(num)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert result.cancelled == (factor,)
        assert result.reduced.numerator == tuple(trimmed)


class TestPoles:
    def test_distinct_and_increasing(self):
        assert poles([(5, 6), (1, 1), (2, 2), (3, 1)]) == (
            Fraction(-3), Fraction(-1), Fraction(-5, 6)
        )

    def test_no_factors_no_poles(self):
        assert poles([]) == ()


class TestReduceFactors:
    def test_cancels_embedded_factor(self):
        # numerator (2/3)*(1 - t/9) over (1-t/3)(1-t/9)
        num = (Fraction(2, 3), Fraction(-2, 27))
        z = RationalZeta(num, ((1, 1), (2, 1)), 3)
        result = reduce_factors(z)
        assert result.cancelled == ((2, 1),)
        assert result.surviving == ((1, 1),)
        assert result.reduced.numerator == (Fraction(2, 3),)
        assert poles(result.surviving) == (Fraction(-1),)

    def test_nothing_cancels(self):
        z = RationalZeta((Fraction(4, 5), Fraction(1, 25)), ((1, 1), (5, 6)), 5)
        result = reduce_factors(z)
        assert result.cancelled == ()
        assert set(poles(result.surviving)) == {Fraction(-1), Fraction(-5, 6)}

    def test_reduction_preserves_value(self):
        num = (Fraction(2, 3), Fraction(-2, 27))
        z = RationalZeta(num, ((1, 1), (2, 1)), 3)
        result = reduce_factors(z)
        assert result.reduced == z


class TestAgainstFractionRoutes:
    """The int routes give what the Fraction routes of tests/reference.py
    give: equal numerators and residuals, and the same factors cancelled."""

    # A = 0 included; a repeated factor is drawn often, and forced by `twice`
    factors_st = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3)
    primes = st.sampled_from([2, 3, 5, 7])
    # (degree, shift) pairs added to a series or numerator
    perturb_st = st.lists(st.tuples(st.integers(0, 12), fracs), max_size=2)

    @staticmethod
    def _times(num, factors, q):
        """num * prod (1 - q^(-A) t^B), one factor at a time."""
        for a, b in factors:
            num = num + [Fraction(0)] * b
            num = [c - (Fraction(num[m - b], q**a) if m >= b else 0) for m, c in enumerate(num)]
        return num

    @staticmethod
    def _perturbed(coeffs, perturb):
        coeffs = list(coeffs)
        for m, shift in perturb:
            if m < len(coeffs):
                coeffs[m] += shift
        return coeffs

    @settings(max_examples=150)
    @given(num=st.lists(fracs, max_size=5), factors=factors_st, twice=st.booleans(),
           q=primes, max_deg=st.integers(0, 7), extra=st.integers(1, 6), perturb=perturb_st)
    def test_recover_numerator(self, num, factors, twice, q, max_deg, extra, perturb):
        factors = factors + factors[:1] if twice else factors
        series = expand(RationalZeta(tuple(num), tuple(factors), q), max_deg + extra)
        series = self._perturbed(series, perturb)
        got = recover_numerator(series, factors, q, max_deg)
        assert got == reference.recover_numerator(series, factors, q, max_deg)
        assert all(type(c) is Fraction for c in (got.numerator or ()))
        assert all(type(c) is Fraction for _, c in got.residuals)

    @settings(max_examples=150)
    @given(num=st.lists(fracs, max_size=5), factors=factors_st, twice=st.booleans(),
           q=primes, perturb=perturb_st)
    def test_divide_out_factor(self, num, factors, twice, q, perturb):
        # num times some of the factors, perhaps perturbed: exact or not; each
        # factor alone in the denominator cancels iff the Fraction division
        # is exact, and leaves its quotient
        factors = factors + factors[:1] if twice else factors
        num = self._perturbed(self._times(num, factors, q), perturb)
        for factor in factors or [(1, 1)]:
            expected = reference.divide_out_factor(num, factor, q)
            z = RationalZeta(tuple(num), (factor,), q)
            result = reduce_factors(z)
            assert result.cancelled == (() if expected is None else (factor,))
            assert result.reduced.numerator == (z.numerator if expected is None else expected)
            assert all(type(c) is Fraction for c in result.reduced.numerator)

    @settings(max_examples=150)
    @given(num=st.lists(fracs, max_size=4), factors=factors_st, twice=st.booleans(),
           cancel=st.integers(0, 3), q=primes, perturb=perturb_st)
    def test_reduce_factors(self, num, factors, twice, cancel, q, perturb):
        # a numerator that carries the first `cancel` factors, perhaps
        # perturbed so that a division is inexact, retired one by one by the
        # Fraction division as reduce_factors retires them
        factors = factors + factors[:1] if twice else factors
        num = self._perturbed(self._times(num, factors[:cancel], q), perturb)
        z = RationalZeta(tuple(num), tuple(factors), q)
        rest, cancelled, surviving = z.numerator, [], []
        for factor in z.denominator_factors:
            quotient = reference.divide_out_factor(rest, factor, q)
            if quotient is None:
                surviving.append(factor)
            else:
                rest = quotient
                cancelled.append(factor)
        result = reduce_factors(z)
        assert (result.cancelled, result.surviving) == (tuple(cancelled), tuple(surviving))
        assert result.reduced.numerator == rest
        assert all(type(c) is Fraction for c in result.reduced.numerator)
