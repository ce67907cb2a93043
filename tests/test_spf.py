import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import grid_counts, plus_multiple, random_sparse_poly, reference_spf_counts
from igusa.cli import parse_polynomial as P
from igusa.mpoly import MAX_LIFTS, from_terms
from igusa.oracle import measure_series
from igusa.ratfun import expand
from igusa.spf import DepthGuardExceeded, spf_evaluate
from reference import BoundNotCertified, count_mod, shift_scale, sup_bound
from reference import spf_evaluate as reference_spf


def _trace_depth(root: dict) -> int:
    """The levels of a recursion trace, walked in its JSON form."""
    todo, deepest = [(root, 1)], 0
    while todo:
        node, depth = todo.pop()
        deepest = max(deepest, depth)
        todo += [(child, depth + 1) for child in node["children"]]
    return deepest




class TestSpfCounts:
    def test_smooth_line(self):
        c = grid_counts(P("x"), 5)
        assert (c.nu, c.sigma, c.singular) == (Fraction(4, 5), Fraction(1, 5), ())

    def test_double_zero(self):
        c = grid_counts(P("x^2"), 5)
        assert (c.nu, c.sigma, c.singular) == (Fraction(4, 5), Fraction(0), ((0,),))

    def test_torus_without_zeros(self):
        c = grid_counts(P("x^2 + y^2"), 3, low=1)
        assert (c.nu, c.sigma, c.singular) == (Fraction(4, 9), Fraction(0), ())

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
        counts = grid_counts(f, p, int(torus))
        total = counts.nu + counts.sigma + Fraction(len(counts.singular), p**2)
        assert total == Fraction((p - torus) ** 2, p**2)


    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_scalar_reference(self, p):
        rng = random.Random(p)
        for n in (1, 2, 3):
            for torus in (False, True):
                for _ in range(3):
                    f = random_sparse_poly(rng, n, max_terms=5, max_exp=5, origin_vanishing=False)
                    got = grid_counts(f, p, int(torus))
                    want = reference_spf_counts(f, p, int(torus))
                    assert (got.nu, got.sigma, got.singular) == (want.nu, want.sigma, want.singular)


class TestSharedClassification:
    """spf_evaluate classifies each reduction mod p once per grid."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts_depend_on_the_reduction_only(self, p):
        rng = random.Random(100 + p)
        for n in (1, 2, 3):
            for low in (0, 1):
                for _ in range(3):
                    g = random_sparse_poly(rng, n, max_terms=5, max_exp=5, origin_vanishing=False)
                    h = random_sparse_poly(rng, n, max_terms=4, max_exp=6, origin_vanishing=False)
                    assert grid_counts(g, p, low) == grid_counts(plus_multiple(g, p, h), p, low)

    @staticmethod
    def _count_calls(monkeypatch):
        from igusa import spf

        calls = []
        original = spf._grid_counts

        def counting(reduced, q, n, low):
            calls.append(reduced)
            return original(reduced, q, n, low)

        monkeypatch.setattr(spf, "_grid_counts", counting)
        return calls

    def test_depth_guard_chain_scans_twice(self, monkeypatch):
        from test_cli import invoke

        # 33 nodes down the chain at (0, 0), whose reductions from the
        # second node on are all x^2 mod 5; every call scans again
        calls = self._count_calls(monkeypatch)
        first = invoke(["spf", "-f", "x^2 + y^3", "-p", "5"])
        assert first[0] == 1 and "depth_guard=32" in first[2]
        assert len(calls) == 2
        assert invoke(["spf", "-f", "x^2 + y^3", "-p", "5"]) == first
        assert len(calls) == 4

    # (polynomial, p, root grid, classifications, trace nodes); a torus
    # root classifies its own grid, and its lifts the full one
    @pytest.mark.parametrize("text, p, root, calls, nodes", [
        ("x^2 - 5^12", 5, "full", 2, 7),  # x^2 mod 5 at six nodes, then x^2 - 1
        ("x^2 - 2*x + 1 - 5^12", 5, "torus", 3, 7),  # (x - 1)^2 at the root
        ("x^2 + y^2 - 9*z^2 + 3^9", 3, "full", 3, 16),
        # (x - 1)^2 + (y - 1)^2 - 9 (z - 1)^2 + 3^9: at (1, 1, 1) the lift is
        # the full row's polynomial over 3^2
        ("x^2 - 2*x + y^2 - 2*y - 9*z^2 + 18*z - 7 + 3^9", 3, "torus", 4, 15),
        ("x^2 - 4*y^2 + x*y*z - 2^8", 2, "full", 11, 106),
    ])
    def test_every_node_keeps_its_own_counts(self, monkeypatch, text, p, root, calls, nodes):
        f, torus = P(text), root == "torus"
        made = self._count_calls(monkeypatch)
        result = spf_evaluate(f, p, torus)
        assert len(made) == calls
        monkeypatch.undo()
        todo = [(result.trace.root, f)]
        while todo:
            node, g = todo.pop()
            nodes -= 1
            assert node.counts == grid_counts(g, p, int(torus and node.path == ()))
            for child in node.children:
                e, h = shift_scale(g, child.path[-1], p)
                assert e == child.order_e
                todo.append((child, h))
        assert nodes == 0


@st.composite
def _spf_inputs(draw):
    """(f, p, torus, depth_guard): 1-3 variables (3 only for p <= 3, so the
    scalar reference stays quick), exponents up to 4, coefficients that p
    divides at times, and small depth guards.  f is any such polynomial, one
    singular at the origin (no term of degree below 2), or a constant."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=3 if p <= 3 else 2))
    coeff = st.sampled_from([1, -1, 2, -3, p, -p, p * p, 2 * p**3, p + 1])
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    kind = draw(st.sampled_from(["any", "singular", "constant"]))
    if kind == "constant":
        terms = [((0,) * n, draw(coeff))]
    else:
        exps = exps.filter(lambda e: sum(e) >= 2) if kind == "singular" else exps
        terms = draw(st.lists(st.tuples(exps, coeff), min_size=1, max_size=4))
    f = from_terms("xyz"[:n], terms)
    assume(not f.is_zero())
    return f, p, draw(st.booleans()), draw(st.integers(min_value=0, max_value=8))


def _outcome(evaluate, f, p, torus, depth_guard):
    """The zeta and trace of an evaluation, or the text of its depth-guard exit."""
    try:
        result = evaluate(f, p, torus, depth_guard)
    except DepthGuardExceeded as exc:
        return "DepthGuardExceeded: " + str(exc)
    zeta = result.zeta
    return zeta.numerator, zeta.denominator_factors, zeta.q, result.trace.as_dict()


class TestAgainstReference:
    """spf_evaluate on term maps against the recursion on exact polynomials
    with Fraction numerators (``reference.spf_evaluate``)."""

    @settings(max_examples=120)
    @given(_spf_inputs())
    def test_random_inputs(self, case):
        assert _outcome(spf_evaluate, *case) == _outcome(reference_spf, *case)

    @pytest.mark.parametrize("text, p, torus, depth_guard, ends", [
        ("x^2 + y^3", 5, False, 32, "depth"),  # the 33-node chain of the bench
        ("x^2", 5, False, 32, "self-similar"),
        ("x^2 - 5^12", 5, False, 32, None),
        ("x^2 - 2*x + 1 - 5^12", 5, True, 32, None),
        ("x^2 - 4*y^2 + x*y*z - 2^8", 2, False, 32, None),
        ("3*x^3 - 2*y^2", 7, False, 5, "depth"),
        ("25 + 0*x*y", 5, True, 32, None),  # constant lifts: memo hits
    ])
    def test_pinned_inputs(self, text, p, torus, depth_guard, ends):
        case = (P(text), p, torus, depth_guard)
        got = _outcome(spf_evaluate, *case)
        assert got == _outcome(reference_spf, *case)
        assert (ends is None) == (not isinstance(got, str)) and (ends or "") in str(got)

    def test_deep_chain(self):
        # x^2 - 5^600 lifts 300 times at the class (0,), down to y^2 - 1
        case = (P("x^2 - 5^600"), 5, False, MAX_LIFTS)
        got = _outcome(spf_evaluate, *case)
        assert got == _outcome(reference_spf, *case)
        assert _trace_depth(got[3]) == MAX_LIFTS + 1


class TestSupBound:
    def test_unit_derivative_everywhere(self):
        assert sup_bound(P("x"), 5, "ell") == 0

    def test_smooth_parabola(self):
        assert sup_bound(P("x^2 + x"), 5, "L") == 0
        assert sup_bound(P("x^2 + x"), 3, "L") == 0

    def test_shifted_square(self):
        assert sup_bound(P("x^2 - 5"), 5, "L") == 1

    def test_interior_critical_point_never_closes(self):
        # 2x + 1 = 0 has a solution in the 3-adic and 5-adic integers, so
        # the derivative-only supremum is infinite and the tree reports
        # the open branch instead of a value
        with pytest.raises(BoundNotCertified, match=r"\(3280,\)"):
            sup_bound(P("x^2 + x"), 3, "ell", max_depth=8)
        with pytest.raises(BoundNotCertified, match=r"\(195312,\)"):
            sup_bound(P("x^2 + x"), 5, "ell", max_depth=8)

    def test_degenerate_origin_never_closes(self):
        with pytest.raises(BoundNotCertified, match=r"\(0,\)"):
            sup_bound(P("x^2"), 3, "ell", max_depth=6)
        with pytest.raises(BoundNotCertified):
            sup_bound(P("x^2"), 3, "L", max_depth=6)

    @pytest.mark.parametrize(
        "text,mode,p",
        [("x^2 + x", "L", 5), ("x^2 - 5", "L", 5), ("3x + 5", "ell", 5), ("x^2 + x", "L", 3)],
    )
    def test_certified_value_matches_direct_minimization(self, text, mode, p):
        f = P(text)
        bound = sup_bound(f, p, mode)
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
        result = spf_evaluate(P("x"), 5)
        assert result.zeta.numerator == (Fraction(4, 5),)
        assert result.zeta.denominator_factors == ((1, 1),)

    def test_shifted_square_terminates(self):
        result = spf_evaluate(P("x^2 - 5"), 5)
        assert result.zeta.numerator == (
            Fraction(4, 5),
            Fraction(1, 25),
            Fraction(-1, 25),
        )
        assert _trace_depth(result.trace.as_dict()) == 2

    def test_full_grid_is_checked_at_the_first_singular_lift(self):
        # 13^6 residues are over the limit, 12^6 are not: a torus root
        # refuses the full grid only when one of its lifts needs it
        squares = "x^2 + y^2 + z^2 + u^2 + v^2 + w^2"  # singular at the origin only
        assert _trace_depth(spf_evaluate(P(squares), 13, torus=True).trace.as_dict()) == 1
        shifted = "x^2-2x+y^2-2y+z^2-2z+u^2-2u+v^2-2v+w^2-2w+6"  # singular at (1, ..., 1)
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 6 mod 13 has "
                                             r"13\^6 = 4826809 residues, over the limit"):
            spf_evaluate(P(shifted), 13, torus=True)

    def test_grids_over_the_residue_limit_are_refused(self, monkeypatch):
        # refused before any residue is built: 53^4 and 52^4 exceed 4 * 10^6
        from igusa import spf

        monkeypatch.setattr(spf, "residue_axes", None)
        f = P("x + y + z + w")
        full = r"^a residue domain of dimension 4 mod 53 has 53\^4 = 7890481 residues"
        with pytest.raises(ValueError, match=full):
            spf_evaluate(f, 53)
        torus = r"has 52\^4 = 7311616 residues, over the limit of 4000000$"
        with pytest.raises(ValueError, match=torus):
            spf_evaluate(f, 53, torus=True)

    def test_refusals_keep_their_order(self):
        # dimension, then the root grid's size, then the zero polynomial,
        # then depth_guard
        with pytest.raises(ValueError, match="^domain dimension must be >= 1$"):
            spf_evaluate(P("5"), 5)
        with pytest.raises(ValueError, match="^domain dimension must be >= 1$"):
            spf_evaluate(P("0"), 5, depth_guard=-1)
        with pytest.raises(ValueError, match="53\\^4 = 7890481 residues"):
            spf_evaluate(P("0*x*y*z*w"), 53, depth_guard=-1)
        with pytest.raises(ValueError, match="^the zero polynomial"):
            spf_evaluate(P("0*x"), 5, depth_guard=-1)

    def test_self_similar_recursion_detected(self):
        with pytest.raises(DepthGuardExceeded, match="self-similar"):
            spf_evaluate(P("x^2"), 5)

    def test_singular_direct_sum_detected(self):
        with pytest.raises(DepthGuardExceeded):
            spf_evaluate(P("x^2 + y^2"), 3)

    def test_depth_guard_cuts_long_chains(self):
        from igusa.mpoly import from_terms

        f = from_terms(("x",), [((2,), 1), ((0,), -(5**20))])
        with pytest.raises(DepthGuardExceeded, match="depth"):
            spf_evaluate(f, 5, depth_guard=3)
        # with a generous guard the chain terminates
        result = spf_evaluate(f, 5)
        assert _trace_depth(result.trace.as_dict()) == 11

    def test_depth_guard_holds_at_the_cap(self):
        # x^2 - 5^(2k) lifts k times, at the class (0,), down to y^2 - 1
        f = P(f"x^2 - 5^{2 * MAX_LIFTS}")
        result = spf_evaluate(f, 5, depth_guard=MAX_LIFTS)
        assert _trace_depth(result.trace.as_dict()) == MAX_LIFTS + 1
        with pytest.raises(ValueError, match=rf"^depth_guard must be in 0..{MAX_LIFTS}, got {MAX_LIFTS + 1}$"):
            spf_evaluate(f, 5, depth_guard=MAX_LIFTS + 1)

    def test_negative_depth_guard_rejected(self):
        with pytest.raises(ValueError, match="depth_guard"):
            spf_evaluate(P("x^2 - 5"), 5, depth_guard=-1)

    def test_zero_polynomial_rejected(self):
        from igusa.mpoly import from_terms

        with pytest.raises(ValueError):
            spf_evaluate(from_terms(("x",), []), 5)

    def test_torus_constant(self):
        result = spf_evaluate(P("x^2 + y^2"), 3, torus=True)
        series = expand(result.zeta, 6)
        assert series == (Fraction(4, 9),) + (Fraction(0),) * 6

    def test_single_denominator_factor_always(self):
        cases = [("x", 3), ("x^2 + x", 3), ("x^2 - 5", 5), ("x + y", 3), ("x^2 + 3x + y", 5)]
        for text, p in cases:
            result = spf_evaluate(P(text), p)
            assert result.zeta.denominator_factors == ((1, 1),)

    @pytest.mark.parametrize(
        "text,p",
        [("x^2 + x", 3), ("x + y", 3), ("x^2 - 5", 5), ("x^2 + 3x + y", 5)]
        + [(text, p) for text in ("3x + 5", "x^2 + 3x + 1", "x^2 + y^2 + x") for p in (3, 5)],
    )
    def test_matches_counting_oracle(self, text, p):
        f = P(text)
        depth = 6
        via_spf = expand(spf_evaluate(f, p).zeta, depth)
        via_counts = measure_series(count_mod(f, p, depth + 1))
        for m in range(depth + 1):
            assert via_spf[m] == via_counts[m], (text, p, m)

    def test_partial_sums_bounded_by_domain_measure(self):
        for text, p, torus in [("x^2 + x", 3, False), ("x^2 - 5", 5, False), ("x", 5, True)]:
            f = P(text)
            series = expand(spf_evaluate(f, p, torus).zeta, 8)
            assert all(c >= 0 for c in series)
            total = sum(series)
            assert total <= Fraction((p - torus) ** f.nvars, p**f.nvars)

    def test_trace_structure(self):
        result = spf_evaluate(P("x^2 - 5"), 5)
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
