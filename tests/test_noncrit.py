import json
import os
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_sparse_poly, torus_has_common_zero
from igusa import noncrit
from igusa.cli import parse_polynomial as P
from igusa.mpoly import from_terms
from igusa.newton import build_polyhedron
from igusa.noncrit import check_noncritical


class TestExactMode:
    def test_single_monomial_is_non_critical(self):
        report = check_noncritical(P("x^2"), mode="exact_small")
        assert report.verdict == "non_critical"
        assert not report.heuristic
        assert all(f.verdict == "non_critical" for f in report.findings)

    def test_perfect_square_is_critical(self):
        report = check_noncritical(P("x^2 + 2x*y + y^2"), mode="exact_small")
        assert report.verdict == "critical"
        witnesses = [f.witness for f in report.findings if f.verdict == "critical"]
        assert witnesses
        # a witness must be a torus point: all coordinates nonzero, and
        # it must kill every partial of the face polynomial
        w = witnesses[0]
        assert all(x != 0 for x in w)
        assert w[0] == -w[1]

    def test_cusp_is_non_critical(self):
        report = check_noncritical(P("x^2 + y^3"), mode="exact_small")
        assert report.verdict == "non_critical"

    def test_nodal_cubic_is_critical_with_unit_witness(self):
        report = check_noncritical(P("x^3 + y^3 - 3x*y"), mode="exact_small")
        assert report.verdict == "critical"
        witnesses = [f.witness for f in report.findings if f.verdict == "critical"]
        assert (1, 1) in witnesses

    def test_findings_cover_every_face(self):
        f = P("x^2 + y^3")
        poly = build_polyhedron(f)
        report = check_noncritical(f, mode="exact_small", polyhedron=poly)
        assert len(report.findings) == len(poly.faces)

    def test_exact_mode_limited_to_two_variables(self):
        with pytest.raises(ValueError):
            check_noncritical(P("x*y*z"), mode="exact_small")

    def test_exact_witness_kills_face_partials(self):
        f = P("x^3 + y^3 - 3x*y")
        poly = build_polyhedron(f)
        report = check_noncritical(f, mode="exact_small", polyhedron=poly)
        for face, finding in zip(poly.faces, report.findings):
            if finding.verdict != "critical":
                continue
            f_tau = poly.face_polynomial(f, face)
            for g in f_tau.partials():
                assert g.evaluate(finding.witness) == 0

    def test_no_disagreeing_primes_on_clean_inputs(self):
        for text in ["x^2", "x^2 + y^3", "x + y"]:
            report = check_noncritical(P(text), mode="exact_small")
            assert all(not f.disagreeing_primes for f in report.findings)


class TestHeuristicMode:
    def test_nodal_cubic_certified_critical(self):
        report = check_noncritical(P("x^3 + y^3 - 3x*y"), mode="finite_field_heuristic")
        assert report.verdict == "critical"
        assert report.heuristic
        witnesses = [f.witness for f in report.findings if f.verdict == "critical"]
        assert (1, 1) in witnesses

    def test_degenerate_square_is_inconclusive(self):
        # zeros exist on the torus mod every auxiliary prime, but the
        # Hessian is singular there, so no lifting certificate exists
        report = check_noncritical(P("x^2 + 2x*y + y^2"), mode="finite_field_heuristic")
        assert report.verdict == "inconclusive"

    def test_three_variable_monomial(self):
        report = check_noncritical(P("x*y*z"), mode="finite_field_heuristic")
        assert report.verdict == "non_critical"
        assert report.heuristic

    def test_aux_primes_recorded(self):
        report = check_noncritical(
            P("x^2"), mode="finite_field_heuristic", aux_primes=(101, 103)
        )
        assert report.aux_primes == (101, 103)


class TestPreconditions:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            check_noncritical(from_terms(("x",), []))

    def test_nonvanishing_origin_rejected(self):
        with pytest.raises(ValueError):
            check_noncritical(P("x + 1"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_noncritical(P("x^2"), mode="bogus")

    @pytest.mark.parametrize("mode", ["exact_small", "finite_field_heuristic"])
    @pytest.mark.parametrize("ell", [100, 2**61 - 1])
    def test_bad_aux_prime_rejected(self, mode, ell):
        # 100 is not prime; 2^61 - 1 is, but its residues overflow int64
        # products.  Exact mode would otherwise skip the prime silently.
        with pytest.raises(ValueError, match=str(ell)):
            check_noncritical(P("x^2"), mode=mode, aux_primes=(ell,))


class TestMonomialProperty:
    @settings(max_examples=30)
    @given(
        exps=st.tuples(
            st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7)
        ),
        coeff=st.integers(min_value=1, max_value=9),
    )
    def test_positive_monomials_non_critical_exact(self, exps, coeff):
        g = gcd(*exps)
        exps = tuple(e // g for e in exps)
        f = from_terms(("x", "y"), [(exps, coeff)])
        assert check_noncritical(f, mode="exact_small").verdict == "non_critical"

    @settings(max_examples=15)
    @given(
        exps=st.tuples(
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=5),
        ),
    )
    def test_positive_monomials_non_critical_heuristic(self, exps):
        from math import gcd as _gcd

        g = _gcd(_gcd(exps[0], exps[1]), exps[2])
        exps = tuple(e // g for e in exps)
        f = from_terms(("x", "y", "z"), [(exps, 1)])
        assert (
            check_noncritical(f, mode="finite_field_heuristic").verdict == "non_critical"
        )


class TestModeAgreement:
    CASES = ["x^2", "x^2 + y^3", "x + y", "x^3 + y^3 - 3x*y", "x^2*y + x*y^2 + x^4"]

    @pytest.mark.parametrize("text", CASES)
    def test_exact_and_heuristic_never_contradict(self, text):
        exact = check_noncritical(P(text), mode="exact_small").verdict
        heur = check_noncritical(P(text), mode="finite_field_heuristic").verdict
        # the heuristic may fail to decide, but must not flip a decision
        if heur != "inconclusive":
            assert heur == exact


class TestTorusSlice:
    """The slice x_j = 1 decides torus zeros of quasi-homogeneous faces."""

    PRIMES = (5, 7, 11, 13, 31)

    def test_slice_axis_respects_gcd(self):
        # f = (y^2 - 3x)^2 has weights a = (2, 1).  At l = 7 its partials
        # vanish at (5, 1) but nowhere on x = 1, since 3 is no square mod 7;
        # gcd(2, 6) = 2 rules out that slice.
        f = P("y^4 - 6*x*y^2 + 9*x^2")
        assert noncrit._weights(f) == ((2, 1),)
        assert noncrit._slice_axis(((2, 1),), 7) == 1
        assert torus_has_common_zero(f.partials(), 7)
        assert noncrit._torus_zeros_mod(f.partials(), 7, 2, axis=1)
        assert not noncrit._torus_zeros_mod(f.partials(), 7, 2, axis=0)
        heur = check_noncritical(f, mode="finite_field_heuristic", aux_primes=(7,))
        assert heur.verdict == "inconclusive"
        exact = check_noncritical(f, mode="exact_small", aux_primes=(7,))
        assert exact.verdict == "critical"
        assert all(not fnd.disagreeing_primes for fnd in exact.findings)

    def test_weights(self):
        assert noncrit._weights(P("x^3 + y^3 - 3x*y")) == ()
        assert noncrit._weights(P("x^2 + x^3")) == ()
        assert noncrit._weights(P("x^3")) == ((1,),)
        assert noncrit._weights(P("x*y*z")) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        # y*w^3 + 2*y^2*z^2: the padding (e_x, e_y) gives a = (0, 0, 3, 2),
        # which shares a factor with 102 in every coordinate
        f = from_terms(("x", "y", "z", "w"), [((0, 1, 0, 3), 1), ((0, 2, 2, 0), 2)])
        weights = noncrit._weights(f)
        assert weights == ((0, 0, 3, 2), (0, 2, -1, 0), (0, 3, 0, 1), (1, 0, 0, 0))
        assert noncrit._slice_axis(weights, 103) == 0
        assert noncrit._slice_axis(((0, 0, 3, 2),), 103) is None

    def test_slice_existence_matches_full_grid(self):
        rng = random.Random(31)
        polys = []
        for _ in range(30):
            polys.append(random_sparse_poly(rng, rng.randint(1, 3), max_terms=4, max_exp=4))
        for _ in range(15):
            # squares have critical faces, so some scans find zeros
            g = random_sparse_poly(rng, rng.randint(2, 3), max_terms=3, max_exp=2, coeff_bound=3)
            polys.append(g * g)
        seen = {"slice": 0, "full": 0, "zeros": 0}
        for f in polys:
            poly = build_polyhedron(f)
            for face in poly.faces:
                f_tau = poly.face_polynomial(f, face)
                partials = f_tau.partials()
                weights = noncrit._weights(f_tau)
                for ell in self.PRIMES:
                    axis = noncrit._slice_axis(weights, ell)
                    found = bool(noncrit._torus_zeros_mod(partials, ell, f.nvars, axis))
                    assert found == torus_has_common_zero(partials, ell), (str(f), str(f_tau), ell)
                    seen["slice" if axis is not None else "full"] += 1
                    seen["zeros"] += found
        assert min(seen.values()) > 20, seen

    def test_homogeneous_four_variables(self):
        f = P("x^2 + y^2 + z^2 + w^2 + 2*x*y")
        report = check_noncritical(f, mode="finite_field_heuristic", aux_primes=(11, 13))
        assert report.verdict == "inconclusive"
        assert all(fnd.verdict != "critical" for fnd in report.findings)

    def test_grid_budget_counts_scanned_points(self, monkeypatch):
        # 10^3 points on a slice of (F_11^x)^4, 10^4 on the whole torus
        monkeypatch.setattr(noncrit, "_GRID_BUDGET", 1000)
        homogeneous = check_noncritical(
            P("x^2 + y^2 + z^2 + w^2"), mode="finite_field_heuristic", aux_primes=(11,)
        )
        assert homogeneous.verdict == "non_critical"
        with pytest.raises(ValueError, match="10000 points"):
            check_noncritical(
                P("x^2 + y^3 + z^5 + w^7 + x*y*z*w"), mode="finite_field_heuristic", aux_primes=(11,)
            )


# check_noncritical(mode="finite_field_heuristic").as_dict() recorded with the
# full-torus scan, before the slice: 40 polynomials drawn by
# random_sparse_poly(random.Random(4), 3, max_terms=5, max_exp=4,
# coeff_bound=5) and two with singular faces, at aux primes (7, 11, 13, 31);
# then x*y*z and x^2 + y^2 + z^2 at the default primes.
with open(os.path.join(os.path.dirname(__file__), "data", "golden_noncrit_heuristic.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: str(e["terms"])[:60])
def test_heuristic_report_matches_golden(entry):
    f = from_terms(entry["variables"], [(tuple(e), c) for e, c in entry["terms"]])
    kwargs = {} if entry["aux_primes"] is None else {"aux_primes": tuple(entry["aux_primes"])}
    report = check_noncritical(f, mode="finite_field_heuristic", **kwargs)
    assert json.dumps(report.as_dict()) == entry["report"]
