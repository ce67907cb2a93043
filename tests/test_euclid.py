import random
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from igusa.euclid import orbit, step, weight_sums

pairs = st.tuples(
    st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60)
)


class TestStep:
    def test_three_cases(self):
        assert step((2, 3), (2, 3)) == (2, 1)  # s < t
        assert step((2, 1), (2, 3)) == (1, 3)  # s > t
        assert step((4, 4), (4, 6)) == (4, 6)  # s = t resets to the base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            step((0, 1), (2, 3))
        with pytest.raises(ValueError):
            step((1, 1), (2, 0))


class TestOrbit:
    def test_coprime_pair(self):
        orb = orbit(2, 3)
        assert orb.period == 4
        assert orb.states == ((2, 3), (2, 1), (1, 3), (2, 2), (2, 3))
        assert orb.e == 2 and orb.e_prime == 3

    def test_fixed_pair(self):
        orb = orbit(1, 1)
        assert orb.period == 1
        assert orb.states == ((1, 1), (1, 1))

    def test_divisible_pair(self):
        orb = orbit(2, 4)
        assert (orb.e, orb.e_prime) == (1, 2)
        assert orb.period == 2
        assert orb.states == ((2, 4), (2, 2), (2, 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            orbit(0, 3)

    @given(cd=pairs)
    def test_period_formula_and_wraparound(self, cd):
        c, d = cd
        orb = orbit(c, d)
        g = gcd(c, d)
        assert orb.period == c // g + d // g - 1
        assert orb.states[0] == orb.states[-1] == (c, d)
        assert len(orb.states) == orb.period + 1
        for prev, nxt in zip(orb.states, orb.states[1:]):
            assert step(prev, (c, d)) == nxt

    @given(cd=pairs)
    def test_period_symmetric_in_arguments(self, cd):
        c, d = cd
        assert orbit(c, d).period == orbit(d, c).period


class TestWeightSums:
    def test_coprime_example(self):
        ws = weight_sums(orbit(2, 3), 1, 1)
        assert ws.mins == (1, 1, 2, 2)
        assert ws.min_sum == 6 == lcm(2, 3)
        assert ws.pick_sum == 2 * 1 + 3 * 1

    def test_fixed_pair_sums(self):
        ws = weight_sums(orbit(1, 1), 7, 11)
        assert ws.min_sum == 1
        assert ws.pick_sum == 7 + 11

    def test_zero_weights(self):
        ws = weight_sums(orbit(2, 4), 0, 0)
        assert ws.pick_sum == 0
        assert ws.min_sum == lcm(2, 4)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            weight_sums(orbit(2, 3), -1, 0)

    @given(
        cd=pairs,
        cw=st.integers(min_value=0, max_value=10**6),
        dw=st.integers(min_value=0, max_value=10**6),
    )
    def test_closed_forms(self, cd, cw, dw):
        c, d = cd
        orb = orbit(c, d)
        ws = weight_sums(orb, cw, dw)
        assert len(ws.mins) == len(ws.picks) == orb.period
        assert ws.min_sum == lcm(c, d)
        assert ws.pick_sum == orb.e * dw + orb.e_prime * cw

    def test_exhaustive_small_range(self):
        rng = random.Random(99)
        for c in range(1, 13):
            for d in range(1, 13):
                orb = orbit(c, d)
                for _ in range(5):
                    cw, dw = rng.randrange(100), rng.randrange(100)
                    ws = weight_sums(orb, cw, dw)
                    assert ws.min_sum == lcm(c, d)
                    assert ws.pick_sum == orb.e * dw + orb.e_prime * cw
