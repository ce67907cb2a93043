import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from igusa.cli import parse_polynomial
from igusa.numeric import check_prime, p_valuation
from igusa.oracle import ball_counts, verify_theorem
from igusa.spf import spf_evaluate

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
    """``check_prime``: what the library takes as a prime."""

    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to every witness 2..37, which decide only below 2^64
    @pytest.mark.parametrize("bad", [0, 1, 4, 9, -3, 100, 318665857834031151167461, 2**64])
    def test_rejects_nonprime(self, bad):
        with pytest.raises(ValueError):
            check_prime(bad)

    def test_names_the_range_it_decides(self):
        pseudoprime = 318665857834031151167461
        with pytest.raises(ValueError, match=rf"^primality is decided for p < 2\^64 only, got {pseudoprime}$"):
            check_prime(pseudoprime)

    def test_accepts_the_largest_64_bit_prime(self):
        check_prime(2**64 - 59)

    @pytest.mark.parametrize("good", [2, 3, 5, 7, 101, 46337])
    def test_accepts_primes(self, good):
        check_prime(good)

    @pytest.mark.parametrize("bad, message", [
        (4, "not a prime: 4"),
        (5.0, "not a prime: 5.0"),
        (True, "not a prime: True"),
        (2**64, f"primality is decided for p < 2^64 only, got {2**64}"),
    ])
    @pytest.mark.parametrize("entry", ["spf_evaluate", "ball_counts", "verify_theorem"])
    def test_entry_points_refuse_it_first(self, entry, bad, message):
        # every other argument is at fault too: the zero polynomial, depth
        # 0, a depth guard past the cap, colliding variables
        zero, x = parse_polynomial("0*x"), parse_polynomial("x")
        call = {
            "spf_evaluate": lambda: spf_evaluate(zero, bad, depth_guard=-1),
            "ball_counts": lambda: ball_counts(zero, bad, 0, budget=-1),
            "verify_theorem": lambda: verify_theorem(x, x, bad, depth=0, max_deg=-1, budget=-1),
        }[entry]
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
