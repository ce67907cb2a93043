import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_sparse_poly, reference_spf_counts
from igusa.cli import parse_polynomial as P
from igusa.numeric import PrimeSpec
from igusa.oracle import count_mod, measure_series
from igusa.ratfun import expand
from igusa.spf import (
    BoundNotCertified,
    DepthGuardExceeded,
    ResidueDomain,
    spf_counts,
    spf_evaluate,
    sup_bound,
)

P3, P5, P7 = PrimeSpec(3), PrimeSpec(5), PrimeSpec(7)


class TestResidueDomain:
    def test_full(self):
        D = ResidueDomain.full(5, 2)
        assert D.size == 25
        assert D.dim == 2

    def test_unit_torus(self):
        D = ResidueDomain.unit_torus(3, 2)
        assert D.size == 4
        assert all(all(x % 3 != 0 for x in r) for r in D.residues)

    def test_of_validates(self):
        D = ResidueDomain.of(5, [(1, 2), (0, 0)])
        assert D.size == 2
        with pytest.raises(ValueError):
            ResidueDomain.of(5, [(1, 2), (0,)])
        with pytest.raises(ValueError):
            ResidueDomain.of(5, [(7, 0)])

    def test_validation_messages(self):
        with pytest.raises(ValueError, match=r"^residue \(0,\) has wrong arity \(dim 2\)$"):
            ResidueDomain.of(5, [(1, 2), (0,)])
        with pytest.raises(ValueError, match=r"^residue \(7, 0\) outside \{0\.\.4\}\^2$"):
            ResidueDomain.of(5, [(1, 2), (7, 0)])
        with pytest.raises(ValueError, match=r"^residue \(0, -1\) outside \{0\.\.4\}\^2$"):
            ResidueDomain.of(5, [(0, -1)])

    def test_rows_sorted_unique_and_plain_ints(self):
        D = ResidueDomain.of(5, [(3, 1), (0, 4), (3, 1), (np.int64(2), 2)])
        assert D.rows.tolist() == [[0, 4], [2, 2], [3, 1]]
        assert D.key() == (5, 2, ((0, 4), (2, 2), (3, 1)))
        assert all(type(c) is int for r in D.residues for c in r)

    def test_keys_distinguish(self):
        a = ResidueDomain.full(5, 1)
        b = ResidueDomain.unit_torus(5, 1)
        assert a.key() != b.key()


class TestSpfCounts:
    def test_smooth_line(self):
        c = spf_counts(P("x"), ResidueDomain.full(5, 1), P5)
        assert (c.nu, c.sigma, c.singular) == (Fraction(4, 5), Fraction(1, 5), ())

    def test_double_zero(self):
        c = spf_counts(P("x^2"), ResidueDomain.full(5, 1), P5)
        assert (c.nu, c.sigma, c.singular) == (Fraction(4, 5), Fraction(0), ((0,),))

    def test_torus_without_zeros(self):
        c = spf_counts(P("x^2 + y^2"), ResidueDomain.unit_torus(3, 2), P3)
        assert (c.nu, c.sigma, c.singular) == (Fraction(4, 9), Fraction(0), ())

    def test_prime_mismatch_raises(self):
        with pytest.raises(ValueError):
            spf_counts(P("x"), ResidueDomain.full(5, 1), P3)

    @settings(max_examples=40)
    @given(
        coeffs=st.tuples(
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=-6, max_value=6),
        ),
        p=st.sampled_from([3, 5]),
        torus=st.booleans(),
    )
    def test_measure_conservation(self, coeffs, p, torus):
        from igusa.mpoly import from_terms

        a, b, c = coeffs
        f = from_terms(("x", "y"), [((2, 0), a), ((0, 2), b), ((1, 1), c), ((1, 0), 1)])
        spec = PrimeSpec(p)
        D = ResidueDomain.unit_torus(p, 2) if torus else ResidueDomain.full(p, 2)
        counts = spf_counts(f, D, spec)
        total = counts.nu + counts.sigma + Fraction(len(counts.singular), p**2)
        assert total == Fraction(D.size, p**2)


    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_scalar_reference(self, p):
        rng = random.Random(p)
        spec = PrimeSpec(p)
        for n in (1, 2, 3):
            every = list(itertools.product(range(p), repeat=n))
            domains = [ResidueDomain.full(p, n), ResidueDomain.unit_torus(p, n)]
            domains += [ResidueDomain.of(p, rng.sample(every, rng.randint(1, len(every))))
                        for _ in range(2)]
            for D in domains:
                for _ in range(3):
                    f = random_sparse_poly(rng, n, max_terms=5, max_exp=5, origin_vanishing=False)
                    got = spf_counts(f, D, spec)
                    want = reference_spf_counts(f, D)
                    assert (got.nu, got.sigma, got.singular) == (want.nu, want.sigma, want.singular)


class TestSupBound:
    def test_unit_derivative_everywhere(self):
        assert sup_bound(P("x"), ResidueDomain.full(5, 1), P5, "ell") == 0

    def test_smooth_parabola(self):
        assert sup_bound(P("x^2 + x"), ResidueDomain.full(5, 1), P5, "L") == 0
        assert sup_bound(P("x^2 + x"), ResidueDomain.full(3, 1), P3, "L") == 0

    def test_shifted_square(self):
        assert sup_bound(P("x^2 - 5"), ResidueDomain.full(5, 1), P5, "L") == 1

    def test_interior_critical_point_never_closes(self):
        # 2x + 1 = 0 has a solution in the 3-adic and 5-adic integers, so
        # the derivative-only supremum is infinite and the tree reports
        # the open branch instead of a value
        with pytest.raises(BoundNotCertified, match=r"\(3280,\)"):
            sup_bound(P("x^2 + x"), ResidueDomain.full(3, 1), P3, "ell", max_depth=8)
        with pytest.raises(BoundNotCertified, match=r"\(195312,\)"):
            sup_bound(P("x^2 + x"), ResidueDomain.full(5, 1), P5, "ell", max_depth=8)

    def test_degenerate_origin_never_closes(self):
        with pytest.raises(BoundNotCertified, match=r"\(0,\)"):
            sup_bound(P("x^2"), ResidueDomain.full(3, 1), P3, "ell", max_depth=6)
        with pytest.raises(BoundNotCertified):
            sup_bound(P("x^2"), ResidueDomain.full(3, 1), P3, "L", max_depth=6)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sup_bound(P("x"), ResidueDomain.full(5, 1), P5, "both")

    @pytest.mark.parametrize(
        "text,mode,p",
        [("x^2 + x", "L", 5), ("x^2 - 5", "L", 5), ("3x + 5", "ell", 5), ("x^2 + x", "L", 3)],
    )
    def test_certified_value_matches_direct_minimization(self, text, mode, p):
        f = P(text)
        spec = PrimeSpec(p)
        bound = sup_bound(f, ResidueDomain.full(p, 1), spec, mode)
        polys = (f, *f.partials()) if mode == "L" else f.partials()
        # direct check at one level past the certified bound: the
        # truncated pointwise minimum must attain the bound and never
        # exceed it
        k = bound + 2
        seen = set()
        for a in range(p**k):
            vals = []
            for g in polys:
                v = g.evaluate((a,))
                vv = 0
                while vv < k and v % p ** (vv + 1) == 0:
                    vv += 1
                vals.append(vv if v % p**k != 0 else k)
            seen.add(min(vals))
        assert max(seen) == bound


class TestSpfEvaluate:
    def test_smooth_line_closed_form(self):
        result = spf_evaluate(P("x"), ResidueDomain.full(5, 1), P5)
        assert result.zeta.numerator == (Fraction(4, 5),)
        assert result.zeta.denominator_factors == ((1, 1),)

    def test_shifted_square_terminates(self):
        result = spf_evaluate(P("x^2 - 5"), ResidueDomain.full(5, 1), P5)
        assert result.zeta.numerator == (
            Fraction(4, 5),
            Fraction(1, 25),
            Fraction(-1, 25),
        )
        assert result.trace.depth == 2

    def test_full_domain_is_built_once(self, monkeypatch):
        # the singular lifts recurse over the full domain: a full D serves
        built = []
        full = ResidueDomain.full.__func__

        def counting_full(cls, p, dim):
            built.append((p, dim))
            return full(cls, p, dim)

        D = ResidueDomain.full(5, 1)
        monkeypatch.setattr(ResidueDomain, "full", classmethod(counting_full))
        assert spf_evaluate(P("x^2 - 5"), D, P5).trace.depth == 2
        assert built == []
        spf_evaluate(P("x^2 - 5"), ResidueDomain.unit_torus(5, 1), P5)
        assert built == [(5, 1)]

    def test_self_similar_recursion_detected(self):
        with pytest.raises(DepthGuardExceeded, match="self-similar"):
            spf_evaluate(P("x^2"), ResidueDomain.full(5, 1), P5)

    def test_singular_direct_sum_detected(self):
        with pytest.raises(DepthGuardExceeded):
            spf_evaluate(P("x^2 + y^2"), ResidueDomain.full(3, 2), P3)

    def test_depth_guard_cuts_long_chains(self):
        from igusa.mpoly import from_terms

        f = from_terms(("x",), [((2,), 1), ((0,), -(5**20))])
        with pytest.raises(DepthGuardExceeded, match="depth"):
            spf_evaluate(f, ResidueDomain.full(5, 1), P5, depth_guard=3)
        # with a generous guard the chain terminates
        result = spf_evaluate(f, ResidueDomain.full(5, 1), P5)
        assert result.trace.depth == 11

    def test_zero_polynomial_rejected(self):
        from igusa.mpoly import from_terms

        with pytest.raises(ValueError):
            spf_evaluate(from_terms(("x",), []), ResidueDomain.full(5, 1), P5)

    def test_torus_constant(self):
        result = spf_evaluate(P("x^2 + y^2"), ResidueDomain.unit_torus(3, 2), P3)
        series = expand(result.zeta, 6)
        assert series.coefficients == (Fraction(4, 9),) + (Fraction(0),) * 6

    def test_single_denominator_factor_always(self):
        cases = [("x", 3), ("x^2 + x", 3), ("x^2 - 5", 5), ("x + y", 3), ("x^2 + 3x + y", 5)]
        for text, p in cases:
            spec = PrimeSpec(p)
            result = spf_evaluate(P(text), ResidueDomain.full(p, P(text).nvars), spec)
            assert result.zeta.denominator_factors == ((1, 1),)

    @pytest.mark.parametrize(
        "text,p",
        [("x^2 + x", 3), ("x + y", 3), ("x^2 - 5", 5), ("x^2 + 3x + y", 5)],
    )
    def test_matches_counting_oracle(self, text, p):
        f = P(text)
        spec = PrimeSpec(p)
        depth = 6
        via_spf = expand(
            spf_evaluate(f, ResidueDomain.full(p, f.nvars), spec).zeta, depth
        )
        via_counts = measure_series(count_mod(f, spec, depth + 1))
        for m in range(depth + 1):
            assert via_spf.coeff(m) == via_counts.coeff(m), (text, p, m)

    def test_partial_sums_bounded_by_domain_measure(self):
        for text, p, torus in [("x^2 + x", 3, False), ("x^2 - 5", 5, False), ("x", 5, True)]:
            f = P(text)
            spec = PrimeSpec(p)
            D = (
                ResidueDomain.unit_torus(p, f.nvars)
                if torus
                else ResidueDomain.full(p, f.nvars)
            )
            series = expand(spf_evaluate(f, D, spec).zeta, 8)
            assert all(c >= 0 for c in series.coefficients)
            total = sum(series.coefficients)
            assert total <= Fraction(D.size, p**f.nvars)

    def test_trace_structure(self):
        result = spf_evaluate(P("x^2 - 5"), ResidueDomain.full(5, 1), P5)
        root = result.trace.root
        assert root.path == ()
        assert len(root.children) == 1
        child = root.children[0]
        assert child.path == ((0,),)
        assert child.order_e == 1
        assert child.cumulative_E == 1
        d = result.trace.as_dict()
        assert d["path"] == []
        assert d["children"][0]["path"] == [[0]]
        assert d["counts"]["nu"] == "4/5"
