import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import graded_lex, random_sparse_poly, reduced, refuse_arrays
from igusa.mpoly import (
    MAX_EXPONENT,
    Polynomial,
    _classify,
    _lift,
    direct_sum,
    eval_mod,
    from_terms,
    residue_axes,
)
from igusa.numeric import p_valuation
from igusa.spf import _lift_node


def P(text):
    from igusa.cli import parse_polynomial

    return parse_polynomial(text)


def _as_sympy(f, xs):
    """f as a sympy expression in xs."""
    import sympy

    return sum(c * sympy.prod([x**k for x, k in zip(xs, exps)]) for exps, c in f.terms.items())


@st.composite
def polynomials(draw, max_vars=3, max_terms=4, max_exp=4, zero_ok=False):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    names = ("x", "y", "z")[:nvars]
    nterms = draw(st.integers(min_value=0 if zero_ok else 1, max_value=max_terms))
    pairs = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * nvars),
                st.integers(min_value=-9, max_value=9),
            ),
            min_size=nterms,
            max_size=nterms,
        )
    )
    return from_terms(names, pairs)


points = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)


class TestConstruction:
    def test_from_terms_sums_duplicates(self):
        f = from_terms(("x",), [((1,), 2), ((1,), 3)])
        assert f == from_terms(("x",), [((1,), 5)])

    def test_from_terms_drops_zeros(self):
        f = from_terms(("x", "y"), [((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
        assert f == from_terms(("x", "y"), [((0, 1), 1)])
        assert f.support() == frozenset({(0, 1)})

    def test_zero_polynomial(self):
        z = from_terms(("x",), [])
        assert z.is_zero()
        assert str(z) == "0"
        assert z.support() == frozenset()

    def test_constant_and_variable(self):
        c = Polynomial(("x", "y"), {(0, 0): 7})
        assert c.constant_term() == 7
        assert c.evaluate((3, 4)) == 7
        v = from_terms(("x", "y"), [((0, 1), 1)])
        assert v.evaluate((3, 4)) == 4

    @pytest.mark.parametrize("variables, terms, error, message", [
        (("x", "x"), {}, ValueError, r"^duplicate variable names: \('x', 'x'\)$"),
        (("x", "y"), {(1,): 1}, ValueError, r"^monomial arity 1 != 2 variables$"),
        (("x",), {(-1,): 1}, ValueError, r"^negative exponent in \(-1,\)$"),
        (("x",), {(MAX_EXPONENT + 1,): 1}, OverflowError, r"^exponent over limit 1000000 in \(1000001,\)$"),
        (("x",), {(1,): 1.0}, TypeError, r"^integer coefficients only, got float$"),
        (("x",), {(1.5,): 1}, TypeError, r"^'float' object cannot be interpreted as an integer$"),
    ])
    def test_constructor_refusals(self, variables, terms, error, message):
        with pytest.raises(error, match=message):
            Polynomial(variables, terms)

    def test_basic_attributes(self):
        f = P("x^2 + y^3")
        assert f.nvars == 2
        assert f.total_degree() == 3
        assert f.support() == frozenset({(2, 0), (0, 3)})


class TestArithmetic:
    def test_evaluate_integer(self):
        assert P("x^2 + y^3").evaluate((2, 1)) == 5

    def test_evaluate_fraction(self):
        assert P("x^2 + y^3").evaluate((Fraction(1, 2), Fraction(1))) == Fraction(5, 4)

    def test_str_canonical_order(self):
        assert str(P("x^2 + y^3")) == "y^3 + x^2"
        assert str(P("x^2 - 5")) == "x^2 - 5"
        assert str(P("-x + 3x^2")) == "3*x^2 - x"


class TestPartials:
    def test_examples(self):
        f = P("x1^2 + x1*x2")
        dx1, dx2 = f.partials()
        assert dx1 == P("2x1 + x2")
        assert str(dx1) == "2*x1 + x2"
        assert str(dx2) == "x1"

    def test_constant_derivative_is_zero(self):
        assert Polynomial(("x",), {(0,): 5}).partial(0).is_zero()

    def test_matches_sympy_diff(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for _ in range(40):
            f = random_sparse_poly(rng, rng.choice([1, 2, 3]), max_terms=5, origin_vanishing=False)
            xs = sympy.symbols(f.variables)
            for i, x in enumerate(xs):
                assert f.partial(i).terms == sympy.Poly(sympy.diff(_as_sympy(f, xs), x), *xs).as_dict(), (str(f), i)


class TestEvalMod:
    # 3^19 is the last power of 3 the kernel runs in int64
    MODULI = (7, 3**19)

    @pytest.mark.parametrize("modulus", MODULI)
    def test_matches_exact_evaluation(self, modulus):
        rng = random.Random(modulus)
        for _ in range(25):
            nvars = rng.randint(1, 3)
            f = random_sparse_poly(rng, nvars, max_terms=5, max_exp=7, coeff_bound=10**6,
                                   origin_vanishing=False)
            pts = [tuple(rng.randint(-10**6, 10**6) for _ in range(nvars)) for _ in range(12)]
            got = eval_mod(f.terms.items(), np.array(pts, dtype=np.int64).T, modulus)
            assert [int(v) for v in got] == [f.evaluate(pt) % modulus for pt in pts]

    @pytest.mark.parametrize("modulus", [3**20, 2**61 - 1])
    def test_refuses_moduli_past_int64(self, modulus):
        # (m - 1)^2 >= 2^63: a product of two residues could overflow int64
        coords = (np.array([2, 5], dtype=np.int64),)
        with pytest.raises(ValueError, match=f"^eval_mod needs .* got modulus {modulus}$"):
            eval_mod(P("x^2").terms.items(), coords, modulus)

    def test_switches_to_refusal_at_the_int64_bound(self):
        # 3^19 and the largest m with (m - 1)^2 < 2^63 run in int64; the
        # next modulus is refused
        top = math.isqrt(2**63 - 1) + 1
        assert (top - 1) ** 2 < 2**63 <= top**2
        for m in (3**19, top):
            xs = [2, 5, m - 2, m - 1]
            got = eval_mod(P("x^2").terms.items(), (np.array(xs, dtype=np.int64),), m)
            assert got.dtype == np.int64
            assert got.tolist() == [x * x % m for x in xs]
        with pytest.raises(ValueError, match=f"^eval_mod needs .* got modulus {top + 1}$"):
            eval_mod(P("x^2").terms.items(), (np.array([2], dtype=np.int64),), top + 1)

    def test_classify_marks_common_zeros_of_the_partials(self):
        f = P("x^2 + y^3 + x*y")
        pts = np.array(list(itertools.product(range(5), repeat=2)), dtype=np.int64)
        values, critical = _classify(reduced(f, 5), pts.T, 5)
        for pt, v, c in zip(pts.tolist(), values.tolist(), critical.tolist()):
            assert v == f.evaluate(pt) % 5
            assert c == all(g.evaluate(pt) % 5 == 0 for g in f.partials())


    def test_reduces_after_each_sum_near_the_int64_limit(self):
        # (l - 1)^2 < 2^63 <= 2 (l - 1)^2: a term fits in int64, but two
        # terms summed unreduced may not, so 2 and 3 terms take the branch
        # that reduces after each sum
        ell = 3000000019
        assert (ell - 1) ** 2 < 2**63 <= 2 * (ell - 1) ** 2
        rng = random.Random(ell)
        xs = [1, 2, ell - 1, ell - 2, ell // 2, *(rng.randrange(ell) for _ in range(3))]
        axes = np.ix_(np.array(xs), np.array(xs[::-1]), np.array(xs[:4]))
        points = list(itertools.product(xs, xs[::-1], xs[:4]))
        rows = np.array(points, dtype=np.int64)
        polys = [P("x*y + z"), P(f"{ell - 1}*x^2*y - z^3 + {ell - 2}")]
        while len(polys) < 20:
            f = random_sparse_poly(rng, 3, max_terms=3, max_exp=5, coeff_bound=10**12,
                                   origin_vanishing=False)
            if len(f.terms) > 1:
                polys.append(f)
        for f in polys:
            want = [f.evaluate(pt) % ell for pt in points]
            terms = f.terms.items()
            on_axes, on_rows = eval_mod(terms, axes, ell), eval_mod(terms, rows.T, ell)
            assert on_axes.dtype == on_rows.dtype == np.int64
            assert on_axes.ravel().tolist() == on_rows.tolist() == want, str(f)


class TestResidueGrid:
    # the axes broadcast to the grid; n = 0 gives no axes and one empty
    # point: noncrit's torus scan meets it on a vertex face
    @pytest.mark.parametrize(
        "p, n, low", [(2, 1, 0), (5, 2, 0), (3, 3, 1), (7, 1, 1), (2, 3, 1), (101, 0, 1), (2, 0, 0)]
    )
    def test_rows_in_product_order(self, p, n, low):
        axes = residue_axes(p, n, low)
        assert [(a.dtype, a.shape) for a in axes] == [
            (np.int64, tuple(p - low if j == i else 1 for j in range(n))) for i in range(n)
        ]
        shape = np.broadcast_shapes(*(a.shape for a in axes))
        assert shape == (p - low,) * n
        grid = np.broadcast_arrays(*axes)
        rows = [tuple(int(a[idx]) for a in grid) for idx in np.ndindex(shape)]
        assert rows == list(itertools.product(range(low, p), repeat=n))

    def test_grids_over_the_limit_are_refused_before_any_axis(self, monkeypatch):
        # every scan takes its grid here, so this one check bounds them all;
        # a grid of exactly the limit passes
        from igusa import mpoly

        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 27)
        assert [a.shape for a in residue_axes(3, 3)] == [(3, 1, 1), (1, 3, 1), (1, 1, 3)]
        assert [a.shape for a in residue_axes(4, 3, 1)] == [(3, 1, 1), (1, 3, 1), (1, 1, 3)]
        refuse_arrays(monkeypatch)
        for (p, n, low), message in [
            ((5, 3, 1), "a residue domain of dimension 3 mod 5 has 4^3 = 64 residues, "
                        "over the limit of 27"),
            ((2, 5, 0), "a residue domain of dimension 5 mod 2 has 2^5 = 32 residues, "
                        "over the limit of 27"),
        ]:
            with pytest.raises(ValueError) as refused:
                residue_axes(p, n, low)
            assert str(refused.value) == message

    @pytest.mark.parametrize("p", [2, 5, 101])
    @pytest.mark.parametrize("low", [0, 1])
    def test_axes_and_rows_give_equal_values(self, p, low):
        rng = random.Random(2 * p + low)
        for n in range(4):
            axes = residue_axes(p, n, low)
            cols = np.array(list(itertools.product(range(low, p), repeat=n)), dtype=np.int64).T
            for _ in range(8 if p < 101 else 2):  # 101^3 rows are slow to evaluate
                f = random_sparse_poly(rng, n, max_terms=5, max_exp=6, coeff_bound=10**4,
                                       origin_vanishing=False)
                terms = f.terms.items()
                assert np.array_equal(eval_mod(terms, axes, p).ravel(), eval_mod(terms, cols, p).ravel())
                values, critical = _classify(reduced(f, p), axes, p)
                want_values, want_critical = _classify(reduced(f, p), cols, p)
                assert values.shape == critical.shape == (p - low,) * n
                assert np.array_equal(values.ravel(), want_values.ravel())
                assert np.array_equal(critical.ravel(), want_critical.ravel())


class TestClassifyAgainstPartials:
    """_classify on reduced(f, p) against Polynomial.partials() and
    Polynomial.evaluate,
    on polynomials where p divides a coefficient or an exponent, so that
    terms of a partial vanish mod p."""

    HAND = [("x^3", 3), ("3*x*y", 3), ("3*x^3", 3), ("x^2", 2), ("x^5*y + 5*y^2 + x", 5),
            ("7*x*y*z + x^7 + y^14*z", 7), ("2*x^2*y^4 + x^3", 2), ("9*x^3 + 6*y", 3)]

    @staticmethod
    def _seeded(rng, p):
        n = rng.randint(1, 3)
        pairs = [(tuple(rng.choice([0, 1, 2, p, 2 * p, p + 1]) for _ in range(n)),
                  rng.choice([1, -1, p, 2 * p, p * p, rng.randint(-20, 20)]))
                 for _ in range(rng.randint(1, 5))]
        return from_terms("xyz"[:n], pairs)

    @staticmethod
    def _plain(f, points, p):
        values = [f.evaluate(pt) % p for pt in points]
        critical = [all(d.evaluate(pt) % p == 0 for d in f.partials()) for pt in points]
        return values, critical

    def test_values_and_mask_equal_the_plain_route(self):
        rng = random.Random(50)
        cases = [(P(text), p) for text, p in self.HAND]
        cases += [(self._seeded(rng, p), p) for p in (2, 3, 5, 7) for _ in range(10)]
        for f, p in cases:
            n = f.nvars
            for low in (0, 1):  # the full grid and the torus, as axes
                points = list(itertools.product(range(low, p), repeat=n))
                values, critical = _classify(reduced(f, p), residue_axes(p, n, low), p)
                got = (values.ravel().tolist(), critical.ravel().tolist())
                assert got == self._plain(f, points, p), (str(f), p, low)
            points = [tuple(rng.randint(-60, 60) for _ in range(n)) for _ in range(12)]
            values, critical = _classify(reduced(f, p), np.array(points, dtype=np.int64).T, p)
            assert (values.tolist(), critical.tolist()) == self._plain(f, points, p), (str(f), p)


class TestDirectSum:
    def test_disjoint_variables(self):
        h = direct_sum(P("x^2"), P("y^3"))
        assert h == P("x^2 + y^3")
        assert h.variables == ("x", "y")

    def test_collision_raises(self):
        with pytest.raises(ValueError):
            direct_sum(P("x^2"), P("x^3"))

    @given(f=polynomials(max_vars=1), g=polynomials(max_vars=1), pt=points)
    def test_separates_evaluation(self, f, g, pt):
        g2 = from_terms(("u",), list(g.terms.items()))
        h = direct_sum(f, g2)
        assert h.evaluate((pt[0], pt[1])) == f.evaluate((pt[0],)) + g2.evaluate((pt[1],))


def shift_scale(f, point, p):
    """(e, g) with f(P + p x) = p^e g(x): spf's exact lift, ``_lift`` and its
    content step, on f's terms in graded-lex order, which must give g's terms
    in graded-lex order."""
    e, terms = _lift_node(graded_lex(f), tuple(point), p, {})
    g = Polynomial(f.variables, dict(terms))
    assert terms == graded_lex(g)
    return e, g


class TestShiftScale:
    def test_examples(self):
        assert shift_scale(P("x^2"), (0,), 5) == (2, P("x^2"))
        assert shift_scale(P("x^2 + 5x"), (0,), 5) == (2, P("x^2 + x"))
        assert shift_scale(P("x^2 - 5"), (0,), 5) == (1, P("5x^2 - 1"))

    @given(
        f=polynomials(max_vars=2),
        a=st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
        pt=points,
        p=st.sampled_from([3, 5]),
    )
    def test_round_trip_identity(self, f, a, pt, p):
        assume(not f.is_zero())
        n = f.nvars
        point = a[:n]
        e, g = shift_scale(f, point, p)
        x = pt[:n]
        shifted = tuple(ai + p * xi for ai, xi in zip(point, x))
        assert p**e * g.evaluate(x) == f.evaluate(shifted)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_composition(self, seed):
        # f(P + p x) expanded by sympy; the first coordinate of P is
        # negative for even seeds and at least p for odd ones
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        f = random_sparse_poly(rng, rng.choice([1, 2, 3]), origin_vanishing=rng.random() < 0.5)
        p = rng.choice([2, 3, 5, 7])
        first = rng.randint(-3 * p, -1) if seed % 2 == 0 else rng.randint(p, 3 * p)
        point = (first,) + tuple(rng.randint(-3 * p, 3 * p) for _ in range(f.nvars - 1))
        xs = sympy.symbols(f.variables)
        composed = _as_sympy(f, [a + p * x for a, x in zip(point, xs)])
        e, g = shift_scale(f, point, p)
        assert {m: p**e * c for m, c in g.terms.items()} == sympy.Poly(composed, *xs).as_dict()
        assert math.gcd(*g.terms.values()) % p != 0

    @pytest.mark.parametrize("seed", range(60))
    def test_lift_below_a_precision_matches_the_composition(self, seed):
        # the kernel at precision m against f(P + p x) expanded by sympy,
        # its terms taken mod p^m: base is the constant term mod p^m, p^e
        # the content of the rest, and h the rest over p^e mod p^(m - e);
        # exponents up to 12 reach past m, and P_i = 0 at times
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        f = random_sparse_poly(rng, rng.choice([1, 2, 3]), max_exp=12, origin_vanishing=rng.random() < 0.5)
        p = rng.choice([2, 3, 5, 7])
        m = rng.randint(1, 8)
        point = tuple(rng.choice([0, rng.randint(-3 * p, 3 * p)]) for _ in range(f.nvars))
        xs = sympy.symbols(f.variables)
        composed = sympy.Poly(_as_sympy(f, [a + p * x for a, x in zip(point, xs)]), *xs).as_dict()
        base = composed.pop((0,) * f.nvars, 0) % p**m
        rest = {mono: int(c) % p**m for mono, c in composed.items() if c % p**m}
        e = min((p_valuation(c, p) for c in rest.values()), default=m)
        want = {mono: c // p**e for mono, c in rest.items()}
        assert _lift(f.terms.items(), point, p, m, {}) == (base, e, want)
        assert all(0 <= c < p ** (m - e) for c in want.values())
        assert not want or math.gcd(*want.values()) % p

    @given(
        f=polynomials(max_vars=2),
        a=st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
        p=st.sampled_from([3, 5]),
    )
    def test_scaled_content_is_p_free(self, f, a, p):
        assume(not f.is_zero())
        _, g = shift_scale(f, a[: f.nvars], p)
        assert math.gcd(*g.terms.values()) % p != 0


class TestEquality:
    @given(f=polynomials(), g=polynomials())
    def test_equality_is_variables_and_terms(self, f, g):
        assert (f == g) == (f.variables == g.variables and f.terms == g.terms)
        if f == g:
            assert hash(f) == hash(g)
        # the order of the terms does not count
        h = Polynomial(f.variables, dict(reversed(list(f.terms.items()))))
        assert h == f and hash(h) == hash(f)

    @given(f=polynomials())
    def test_hash_consistent(self, f):
        g = from_terms(f.variables, list(f.terms.items()))
        assert hash(f) == hash(g)
        assert f == g
