"""End-to-end acceptance checks, one per criterion, all in exact arithmetic.

Each test prints a single PASS line (with its runtime) when it succeeds,
and a FAIL line before re-raising when it does not, so a captured run
reads as a checklist.  Runtime ceilings are asserted, not just reported.
"""

import contextlib
import random
import time
from fractions import Fraction
from math import gcd, lcm

from helpers import random_sparse_poly
from igusa.cli import parse_polynomial as P
from igusa.euclid import orbit, weight_sums
from igusa.mpoly import direct_sum
from igusa.newton import build_polyhedron
from igusa.oracle import measure_series, verify_theorem
from igusa.ratfun import expand, poles
from igusa.spf import spf_evaluate
from reference import count_mod, face_cone, product, proper_faces, sup_bound, zero_cone
from test_newton import _check_cone_partition, _check_h_v_consistency


@contextlib.contextmanager
def criterion(k: int, description: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{k} FAIL — {description}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < budget_s, f"C{k} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE C{k} PASS — {description} ({elapsed:.2f}s)")


def test_c1_interleaving_orbit_identities():
    rng = random.Random(20240819)
    with criterion(1, "orbit period and weight-sum identities, c,d <= 40", 1.0):
        for c in range(1, 41):
            for d in range(1, 41):
                orb = orbit(c, d)
                g = gcd(c, d)
                e, e_prime = c // g, d // g
                assert orb.period == e + e_prime - 1
                assert orb.states[0] == orb.states[-1] == (c, d)
                for _ in range(20):
                    cw, dw = rng.randrange(0, 100), rng.randrange(0, 100)
                    ws = weight_sums(orb, cw, dw)
                    assert ws.min_sum == lcm(c, d)
                    assert ws.pick_sum == e * dw + e_prime * cw


def test_c2_newton_polyhedron_h_v_consistency():
    rng = random.Random(20240819)
    with criterion(2, "cusp facets frozen and H/V-consistency on sparse corpus", 5.0):
        poly = build_polyhedron(P("x^2 + y^3"))
        assert {(f.normal, f.m) for f in poly.facets} == {
            ((0, 1), 0),
            ((1, 0), 0),
            ((3, 2), 6),
        }
        checked = 0
        while checked < 20:
            f = random_sparse_poly(rng, rng.choice([1, 2, 3]))
            if f.is_zero():
                continue
            _check_h_v_consistency(f)
            _check_cone_partition(f, bound=4)
            checked += 1


def test_c3_spf_matches_counting_oracle():
    cases = ["x", "x^2 + x", "x^2 - 5", "x + y", "x^2 + 3x + y"]
    with criterion(3, "stationary-phase series == counting series to depth 10", 30.0):
        for text in cases:
            for p in (3, 5):
                f = P(text)
                z = spf_evaluate(f, p).zeta
                via_spf = expand(z, 9)
                via_counts = measure_series(count_mod(f, p, 10))
                for m in range(10):
                    assert via_spf[m] == via_counts[m], (text, p, m)


def test_c4_perturbation_invariance():
    with criterion(4, "perturbation beyond 2C+2 leaves the integral unchanged", 5.0):
        f = P("x^2 + x")
        for p in (3, 5):
            C = sup_bound(f, p, "L")
            assert C == 0  # certified: the pointwise minimum never exceeds 0
            beta = 2 * C + 2
            from igusa.mpoly import from_terms

            g = from_terms(("x",), [((2,), 1), ((1,), 1), ((5,), p**beta)])
            assert spf_evaluate(f, p).zeta == spf_evaluate(g, p).zeta


def test_c5_denominator_verification():
    with criterion(5, "predicted denominator reproduces the counting series", 620.0):
        t0 = time.monotonic()
        rep = verify_theorem(P("x^2"), P("y^2"), 5, depth=8)
        assert rep.ok and rep.residuals == ()
        rep = verify_theorem(P("x"), P("y"), 3, depth=8)
        assert rep.ok and rep.residuals == ()
        assert time.monotonic() - t0 < 10.0
        rep = verify_theorem(P("x^2"), P("y^3"), 5, depth=9)
        assert rep.ok and rep.residuals == ()
        assert set(poles(rep.surviving_factors)) <= {Fraction(-1), Fraction(-5, 6)}


def test_c6_cone_partition_of_counts():
    with criterion(6, "per-cone counts sum to the unrestricted count, levels <= 6", 120.0):
        fsum = direct_sum(P("x^2"), P("y^3"))
        parts = []
        for factor_text in ("x^2", "y^3"):
            poly1 = build_polyhedron(P(factor_text))
            (face,) = proper_faces(poly1)
            parts.append([zero_cone, face_cone(poly1, face)])
        per = [
            count_mod(fsum, 3, 6, domain=product(a, b, 1))
            for a in parts[0]
            for b in parts[1]
        ]
        full = count_mod(fsum, 3, 6)
        for m in range(7):
            assert sum(c.N(m) for c in per) == full.N(m)
        # order: zero x zero, zero x cone, cone x zero, cone x cone
        assert per[0].counts == (2, 6, 18, 54, 162, 486)
        assert per[1].counts == (0, 0, 0, 0, 0, 0)
        assert per[2].counts == (0, 0, 0, 0, 0, 0)
        assert per[3].counts == (1, 9, 27, 81, 243, 2187)


def test_c7_count_series_sanity():
    corpus = ["x", "x^2", "x^2 + x", "x + y", "x^2 + y^3", "x^2 + 3x + y", "x y"]
    with criterion(7, "count nesting bound and non-negative measure, full corpus", 60.0):
        rng = random.Random(20240819)
        polys = [P(text) for text in corpus]
        for _ in range(10):
            f = random_sparse_poly(rng, rng.choice([1, 2]))
            if not f.is_zero():
                polys.append(f)
        for f in polys:
            for p in (2, 3, 5):
                c = count_mod(f, p, 4)
                for m in range(4):
                    assert c.N(m + 1) <= p**f.nvars * c.N(m)
                series = measure_series(c)
                assert all(co >= 0 for co in series)
