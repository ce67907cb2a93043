from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from igusa.cli import parse_polynomial as P
from igusa.ratfun import poles
from igusa.tsden import denominator, pair_factor


class TestPairFactor:
    def test_cusp_weights(self):
        assert pair_factor(2, 3, 1, 1) == (5, 6)

    def test_zero_weight_contributes_nothing(self):
        assert pair_factor(0, 7, 1, 1) is None
        assert pair_factor(7, 0, 3, 2) is None

    def test_unit_weights(self):
        assert pair_factor(1, 1, 1, 1) == (2, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pair_factor(-1, 2, 1, 1)
        with pytest.raises(ValueError):
            pair_factor(2, 2, 0, 1)

    def test_pole_value(self):
        assert poles([pair_factor(2, 3, 1, 1)]) == (Fraction(-5, 6),)

    @given(
        m_f=st.integers(min_value=1, max_value=100),
        m_g=st.integers(min_value=1, max_value=100),
        abs_a=st.integers(min_value=1, max_value=100),
        abs_b=st.integers(min_value=1, max_value=100),
    )
    def test_t_power_is_lcm(self, m_f, m_g, abs_a, abs_b):
        _, t_power = pair_factor(m_f, m_g, abs_a, abs_b)
        assert t_power == lcm(m_f, m_g)
        assert (m_f * m_g) % t_power == 0

    @given(
        m_f=st.integers(min_value=1, max_value=100),
        m_g=st.integers(min_value=1, max_value=100),
        abs_a=st.integers(min_value=1, max_value=100),
        abs_b=st.integers(min_value=1, max_value=100),
    )
    def test_symmetric_under_swap(self, m_f, m_g, abs_a, abs_b):
        assert pair_factor(m_f, m_g, abs_a, abs_b) == pair_factor(m_g, m_f, abs_b, abs_a)


class TestDenominator:
    def test_power_pair(self):
        den = denominator(P("x^2"), P("y^3"))
        assert den.factors() == [(1, 1), (5, 6)]

    def test_square_pair(self):
        den = denominator(P("x^2"), P("y^2"))
        assert den.factors() == [(1, 1), (2, 2)]

    def test_linear_pair(self):
        den = denominator(P("x"), P("y"))
        assert den.factors() == [(1, 1), (2, 1)]

    def test_two_variable_summand(self):
        den = denominator(P("x^2 + z^2"), P("y^3"))
        assert den.factors() == [(1, 1), (8, 6)]
        assert sum(1 for _, _, fac in den.pairs if fac is None) == 2
        active = [pair for pair in den.pairs if pair[2] is not None]
        assert active == [((1, 1), (1,), (8, 6))]

    def test_variable_collision_rejected(self):
        with pytest.raises(ValueError):
            denominator(P("x^2"), P("x^3"))

    def test_as_dict_shape(self):
        d = denominator(P("x^2 + z^2"), P("y^3")).as_dict()
        assert d["universal"] == {"qpow": 1, "tpow": 1}
        assert d["poles"] == ["-4/3", "-1"]
        inert = [e for e in d["factors"] if e["inert"]]
        assert all(e["qpow"] is None and e["tpow"] is None for e in inert)
        active = [e for e in d["factors"] if not e["inert"]]
        assert active == [{"a": [1, 1], "b": [1], "qpow": 8, "tpow": 6, "inert": False}]
        assert d["warnings"] == []

    def test_symmetry_of_pair_multiset(self):
        for ft, gt in [("x^2", "y^3"), ("x^2 + z^2", "y^3"), ("x + z^4", "y^2")]:
            f, g = P(ft), P(gt)
            ab = denominator(f, g)
            ba = denominator(g, f)
            assert sorted(ab.factors()) == sorted(ba.factors())


class TestCandidatePoles:
    def test_cusp_poles(self):
        assert denominator(P("x^2"), P("y^3")).candidate_poles() == (Fraction(-1), Fraction(-5, 6))

    def test_coincident_pole_collapses(self):
        assert denominator(P("x^2"), P("y^2")).candidate_poles() == (Fraction(-1),)

    def test_linear_poles(self):
        assert denominator(P("x"), P("y")).candidate_poles() == (Fraction(-2), Fraction(-1))

    def test_always_contains_minus_one(self):
        for ft, gt in [("x^5", "y^7"), ("x^2 + z^3", "y^4"), ("x", "y^9")]:
            assert Fraction(-1) in denominator(P(ft), P(gt)).candidate_poles()

    def test_size_bound(self):
        f, g = P("x^2 + z^2"), P("y^3")
        den = denominator(f, g)
        found = den.candidate_poles()
        assert len(found) <= len(den.pairs) + 1
        assert list(found) == sorted(found)
        # the largest candidate pole is minus the smallest factor ratio
        ratios = [Fraction(a, b) for a, b in den.factors()]
        assert found[-1] == -min(ratios)
