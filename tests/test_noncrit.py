import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    affine_dim,
    lifts_mod,
    random_sparse_poly,
    reference_torus_zeros,
    square,
    sympy_torus_ideal_trivial,
    torus_common_zeros,
    torus_has_common_zero,
    witness_error,
)
from igusa import mpoly, noncrit
from igusa.cli import parse_polynomial as P
from igusa.mpoly import from_terms
from igusa.newton import build_polyhedron
from igusa.noncrit import check_noncritical


class TestExactMode:
    def test_single_monomial_is_non_critical(self):
        report = check_noncritical(P("x^2"))
        assert report.verdict == "non_critical"
        assert not report.heuristic
        assert all(f.verdict == "non_critical" for f in report.findings)

    def test_perfect_square_is_critical(self):
        report = check_noncritical(P("x^2 + 2x*y + y^2"))
        assert report.verdict == "critical"
        witnesses = [f.witness for f in report.findings if f.verdict == "critical"]
        assert witnesses
        # a witness must be a torus point: all coordinates nonzero, and
        # it must kill every partial of the face polynomial
        w = witnesses[0]
        assert all(x != 0 for x in w)
        assert w[0] == -w[1]

    def test_cusp_is_non_critical(self):
        report = check_noncritical(P("x^2 + y^3"))
        assert report.verdict == "non_critical"

    def test_nodal_cubic_is_critical_with_unit_witness(self):
        report = check_noncritical(P("x^3 + y^3 - 3x*y"))
        assert report.verdict == "critical"
        witnesses = [f.witness for f in report.findings if f.verdict == "critical"]
        assert (1, 1) in witnesses

    def test_findings_cover_every_face(self):
        f = P("x^2 + y^3")
        poly = build_polyhedron(f)
        report = check_noncritical(f, polyhedron=poly)
        assert len(report.findings) == len(poly.faces)

    @pytest.mark.parametrize(
        "text,mode", [("x^2 + y^3", "exact_small"), ("x*y*z", "finite_field_heuristic")]
    )
    def test_number_of_variables_picks_the_mode(self, text, mode):
        assert check_noncritical(P(text)).mode == mode

    def test_exact_witness_kills_face_partials(self):
        f = P("x^3 + y^3 - 3x*y")
        poly = build_polyhedron(f)
        report = check_noncritical(f, polyhedron=poly)
        for face, finding in zip(poly.faces, report.findings):
            if finding.verdict != "critical":
                continue
            f_tau = poly.face_polynomial(f, face)
            for g in f_tau.partials():
                assert g.evaluate(finding.witness) == 0

    def test_no_disagreeing_primes_on_clean_inputs(self):
        for text in ["x^2", "x^2 + y^3", "x + y"]:
            report = check_noncritical(P(text))
            assert all(not f.disagreeing_primes for f in report.findings)


def _face_poly(f, support):
    """f restricted to the given support points."""
    return from_terms(f.variables, [(tuple(w), f.terms[tuple(w)]) for w in support])


class TestExactWitness:
    """Exact-mode witnesses: small integer zeros, else Hensel-certified
    zeros of the auxiliary-prime scans, checked by independent code."""

    # the critical inputs of the golden analyze file whose witnesses sympy's
    # solver used to find, and the input that took it 74 s to find none
    SOLVER_INPUTS = [
        "x^3 + y^4 + x*y^2",
        "x^2*y + y^4 + x^4",
        "x*y + x^3 + y^3",
        "x^2*y^2 + x^5 + y^5",
        "x^2*y^3 + x^5 + y^4",
        "x^3*y + x*y^3 + x^6 + y^6",
        "x^2 - y^2 + x^3",
        "x^5 + x^2*y^2 + y^4",
        "x^5 + x^3*y^2 + y^4",
        "x^5 + y^7 + x^2*y^2",
    ]

    def test_golden_witnesses_are_torus_zeros(self):
        path = os.path.join(os.path.dirname(__file__), "data", "golden_analyze_poles.json")
        with open(path) as fh:
            golden = json.load(fh)
        checked = 0
        for entry in golden:
            if entry["argv"][0] != "analyze":
                continue
            payload = json.loads(entry["stdout"])
            report = payload["noncritical"]
            if report["mode"] != "exact_small":
                continue
            f = P(entry["argv"][2])
            for face in report["faces"]:
                if face["witness"] is None:
                    continue
                f_tau = _face_poly(f, face["support"])
                assert witness_error(f_tau, tuple(face["witness"])) == "", (entry["argv"], face)
                checked += 1
        assert checked == 9

    def test_seeded_critical_inputs(self):
        rng = random.Random(5)
        inputs = []
        while len(inputs) < 60:
            if rng.random() < 0.5:
                g = random_sparse_poly(rng, 2, max_terms=3, max_exp=3, coeff_bound=3)
                f = square(g)
            else:
                f = random_sparse_poly(rng, 2, max_terms=4, max_exp=5, coeff_bound=4)
            try:
                report = check_noncritical(f)
            except ValueError:  # the origin is no zero of f
                continue
            if report.verdict == "critical":
                inputs.append((f, report))
        seen = {"int": 0, "mod": 0, "none": 0, "trivial": 0}
        for f, report in inputs:
            for fnd in report.findings:
                f_tau = _face_poly(f, fnd.face_support)
                if fnd.verdict == "non_critical":
                    # by the Nullstellensatz no zero of a trivial face lifts
                    # to characteristic 0, so none may be certified mod l
                    seen["trivial"] += 1
                    for ell in report.aux_primes:
                        zeros = torus_common_zeros(f_tau.partials(), ell)
                        assert not any(lifts_mod(f_tau.partials(), z, ell) for z in zeros), (str(f), ell)
                    continue
                if fnd.witness is None:
                    seen["none"] += 1
                    continue
                seen["int" if type(fnd.witness[0]) is int else "mod"] += 1
                assert witness_error(f_tau, fnd.witness) == "", (str(f), fnd)
        assert min(seen.values()) >= 10, seen

    def test_no_solver_needed(self, monkeypatch):
        # the witness rule decides every critical face: no Groebner basis
        def refuse(*args):
            raise AssertionError("Groebner fallback called")

        monkeypatch.setattr(noncrit, "_groebner_trivial", refuse)
        for text in self.SOLVER_INPUTS:
            report = check_noncritical(P(text))
            assert report.verdict == "critical", text
            critical = [fnd for fnd in report.findings if fnd.verdict == "critical"]
            assert critical and all(fnd.witness is not None for fnd in critical), text

    @pytest.mark.parametrize("text", ["x^4 - 4*x^2*y^2 + 4*y^4", "9*x^2*y^2 + 6*x^2*y + x^2"])
    def test_singular_jacobian_face_has_no_witness(self, text):
        # (x^2 - 2y^2)^2 is homogeneous with both partials nonzero, so its
        # Jacobian is the Hessian, singular at every zero by Euler; and no
        # integer point has x^2 = 2y^2.  x^2 (3y + 1)^2 has partials sharing
        # the factor 3y + 1, whose zeros form a curve with y = -1/3: the
        # Jacobian has rank 1 along it.  Zeros exist mod 103 in both cases.
        f = P(text)
        report = check_noncritical(f)
        assert report.verdict == "critical"
        critical = [fnd for fnd in report.findings if fnd.verdict == "critical"]
        assert critical and all(fnd.witness is None for fnd in critical)
        zeros = torus_common_zeros(f.partials(), 103)
        assert zeros and not any(lifts_mod(f.partials(), z, 103) for z in zeros)

    def test_over_budget_prime_raises(self, monkeypatch):
        # the improper face is off every hyperplane: 2002^2 points exceed
        # the grid budget, and the prime must not pass as if it agreed
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (2003,))
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 2 mod 2003 has "
                                             r"2002\^2 = 4008004 residues, over the limit of 4000000$"):
            check_noncritical(P("x^2 + 2*x*y + y^2 + x^3"))


def _support(f_tau):
    return tuple(sorted(f_tau.terms))


class TestExactRules:
    """Exact mode decides a face by the first rule that applies: a monomial
    partial, a single nonzero partial, the support on a line, a witness,
    then a budgeted Groebner basis over Z."""

    @pytest.mark.parametrize(
        "text, critical",
        [
            ("x^4 + x^2*y^2 + y^4", False),  # h = 1 + z^2 + z^4 is squarefree
            ("x^2 - 2*x*y + y^2", True),
            ("x^2*y^2 - 2*x*y + 1", True),  # weighted degree 0: (u - 1)^2
            ("x^4 - 4*x^2*y^2 + 4*y^4", True),  # (x^2 - 2y^2)^2
            ("x*y - x^2*y^2", True),  # u - u^2 is critical at u = 1/2
            ("x^2*y + x*y^2", False),
        ],
    )
    def test_line_rule(self, text, critical):
        f = P(text)
        hull = noncrit._hull(f)
        assert hull.h.nvars == 1
        assert noncrit._line_critical(hull.v0, hull.h) is critical
        finding = noncrit._check_face_exact(f, f.partials(), _support(f))
        assert finding.verdict == ("critical" if critical else "non_critical")

    def test_decision_agrees_with_sympy(self, monkeypatch):
        pytest.importorskip("sympy")
        texts = ["x*y + 1", "x^2*y^2 - 2*x*y + 1", "x*y - x^2*y^2", "2*x*y + 2*x^3 - 3*x^3*y^3"]
        # non-critical faces that the fallback decides wrongly if the chain
        # criterion drops a pair whose lcm meets the new leading monomial's
        texts += ["x^6*y^6 + x^6*y^3 - 3*x^2*y", "2*x^6*y^2 + 2*x^3*y^3 - 4*x*y", "3*x^2*y^3 - x^5*y - 2*x^4*y^6"]
        texts += [f"(x^{a} {s} y^{b})^2" for a in range(1, 4) for b in range(1, 4) for s in "+-"]
        inputs = []
        for text in texts:
            if text.startswith("("):
                g = P(text[1:-3])
                inputs.append(square(g))
            else:
                inputs.append(P(text))
        rng = random.Random(9)
        while len(inputs) < 220:
            nvars = rng.choice((1, 2, 2))
            if rng.random() < 0.3:
                g = random_sparse_poly(rng, nvars, max_terms=3, max_exp=3, coeff_bound=3)
                inputs.append(square(g))
            else:
                inputs.append(random_sparse_poly(rng, nvars, max_terms=4, max_exp=5, coeff_bound=4))
        faces = {}
        for f in inputs:
            if f.constant_term():
                # a weighted-degree-0 face polynomial on its own
                faces[f.canonical_key()] = f
                continue
            poly = build_polyhedron(f)
            for face in poly.faces:
                f_tau = poly.face_polynomial(f, face)
                faces[f_tau.canonical_key()] = f_tau
        calls = []
        for name in ("_line_critical", "_groebner_trivial"):
            fn = getattr(noncrit, name)
            monkeypatch.setattr(noncrit, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        rules = Counter()
        for f_tau in faces.values():
            calls.clear()
            partials = f_tau.partials()
            finding = noncrit._check_face_exact(f_tau, partials, _support(f_tau))
            assert (finding.verdict == "non_critical") == sympy_torus_ideal_trivial(partials), str(f_tau)
            nonzero = [g for g in partials if not g.is_zero()]
            if any(len(g.terms) == 1 for g in nonzero):
                rule = "monomial"
            elif len(nonzero) == 1:
                rule = "single partial"
            elif calls:
                (rule,) = calls
            else:
                assert finding.witness is not None, str(f_tau)
                rule = "witness"
            assert not calls or rule == calls[0], (str(f_tau), calls)
            rules[rule] += 1
        assert len(faces) > 300
        assert set(rules) == {"monomial", "single partial", "_line_critical", "witness", "_groebner_trivial"}, rules

    def test_fallback_budget(self, monkeypatch):
        monkeypatch.setattr(noncrit, "_GROEBNER_STEPS", 1)
        with pytest.raises(ValueError, match=re.escape("face [[1, 1], [3, 0], [3, 3]]")):
            check_noncritical(P("2*x*y + 2*x^3 - 3*x^3*y^3"))


def test_exact_mode_leaves_sympy_out():
    import igusa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(igusa.__file__)))
    code = (
        "import sys\n"
        "from igusa.cli import parse_polynomial\n"
        "from igusa.noncrit import check_noncritical\n"
        "for text in ['x^5 + y^7 + x^2*y^2', '2*x*y + 2*x^3 - 3*x^3*y^3', 'x^2 - 2*x*y + y^2']:\n"
        "    print(check_noncritical(parse_polynomial(text)).verdict)\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["critical", "non_critical", "critical", "False"]


class TestSharedSupport:
    # faces with the same meet support share f_tau, so one batch of torus
    # scans decides them all: 6 faces on 3 supports, and 30 on 15
    @pytest.mark.parametrize(
        "text, mode, aux_primes, nfaces, nsupports",
        [
            ("x^4 - 4*x^2*y^2 + 4*y^4", "exact_small", (101, 103, 107), 6, 3),
            ("x^3 + y^3 + z^3 + w^3", "finite_field_heuristic", (11, 13), 30, 15),
        ],
    )
    def test_one_scan_batch_per_support(self, monkeypatch, text, mode, aux_primes, nfaces, nsupports):
        # and one hull system per support, whatever the number of primes
        systems, scans = [], []
        system, torus_scans = noncrit._hull_system, noncrit._torus_scans

        def recorded_scans(hull, primes):
            for ell, zeros in torus_scans(hull, primes):
                scans.append((hull, ell))
                yield ell, zeros

        monkeypatch.setattr(noncrit, "_hull_system", lambda hull: systems.append(hull) or system(hull))
        monkeypatch.setattr(noncrit, "_torus_scans", recorded_scans)
        monkeypatch.setattr(noncrit, "AUX_PRIMES", aux_primes)
        f = P(text)
        poly = build_polyhedron(f)
        report = check_noncritical(f, polyhedron=poly)
        assert report.mode == mode
        assert len(poly.faces) == nfaces
        assert len({face.meet_support for face in poly.faces}) == nsupports
        assert len(systems) == len(set(systems)) == nsupports
        assert len(scans) == len(set(scans)) == nsupports * len(aux_primes)
        faces = report.as_dict()["faces"]
        assert [fc["support"] for fc in faces] == [
            [list(w) for w in sorted(face.meet_support)] for face in poly.faces
        ]


class TestHeuristicMode:
    @pytest.fixture(autouse=True)
    def heuristic(self, monkeypatch):
        # every input, 1-2 variables too, takes the finite-field heuristic
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 0)

    def test_nodal_cubic_certified_critical(self):
        report = check_noncritical(P("x^3 + y^3 - 3x*y"))
        assert report.verdict == "critical"
        assert report.heuristic
        witnesses = [f.witness for f in report.findings if f.verdict == "critical"]
        assert (1, 1) in witnesses

    def test_degenerate_square_is_inconclusive(self):
        # zeros exist on the torus mod every auxiliary prime, but the
        # Hessian is singular there, so no lifting certificate exists
        report = check_noncritical(P("x^2 + 2x*y + y^2"))
        assert report.verdict == "inconclusive"

    def test_euler_guard_on_a_lower_dimensional_face(self, monkeypatch):
        # the face x^2 - x^3 has d = 1 < n = 2: the Jacobian of its one
        # nonzero partial has full rank at x = 2/3, which exact mode lifts,
        # while the Hessian, with a zero row for y, never certifies a zero
        f = P("x^2 - x^3 + y^2")
        face = [[2, 0], [3, 0]]
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 2)
        exact = [fc for fc in check_noncritical(f).as_dict()["faces"] if fc["support"] == face]
        assert [(fc["verdict"], fc["witness"]) for fc in exact] == [("critical", ["68 mod 101", "1 mod 101"])]
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 0)
        heur = check_noncritical(f)
        assert heur.verdict == "inconclusive"
        assert [fnd.verdict for fnd in heur.findings if [list(w) for w in fnd.face_support] == face] == ["inconclusive"]

    def test_inconclusive_names_the_first_prime_with_zeros(self, monkeypatch):
        # the face scans find 0, 1, 0 and 0 zeros mod 7, 11, 13 and 31
        f = P("-3*y^2*z^2 - x^3*y^4 - x^4*y*z^3")
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (7, 11, 13, 31))
        report = check_noncritical(f)
        fields = {fnd.field for fnd in report.findings if fnd.verdict == "inconclusive"}
        assert report.verdict == "inconclusive"
        assert fields == {"F_11"}

    def test_three_variable_monomial(self):
        report = check_noncritical(P("x*y*z"))
        assert report.verdict == "non_critical"
        assert report.heuristic

    def test_aux_primes_recorded(self, monkeypatch):
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (101, 103))
        report = check_noncritical(P("x^2"))
        assert report.aux_primes == (101, 103)


class TestPreconditions:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            check_noncritical(from_terms(("x",), []))

    def test_nonvanishing_origin_rejected(self):
        with pytest.raises(ValueError):
            check_noncritical(P("x + 1"))

    def test_exact_mode_needs_no_aux_primes(self, monkeypatch):
        monkeypatch.setattr(noncrit, "AUX_PRIMES", ())
        assert check_noncritical(P("x^2 + 2*x*y + y^2")).verdict == "critical"


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
        assert check_noncritical(f).verdict == "non_critical"

    @settings(max_examples=30)
    @given(
        exps=st.tuples(
            st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
        ).filter(any),
        coeff=st.integers(min_value=-9, max_value=9).filter(bool),
    )
    def test_groebner_agrees_on_monomials(self, exps, coeff):
        # exact mode decides monomial faces without the Groebner fallback,
        # which agrees with it
        f = from_terms(("x", "y"), [(exps, coeff)])
        nonzero = [g for g in f.partials() if not g.is_zero()]
        assert noncrit._groebner_trivial(nonzero, (exps,))

    def test_monomial_faces_skip_groebner(self, monkeypatch):
        bases = []
        groebner = noncrit._groebner_trivial
        monkeypatch.setattr(
            noncrit, "_groebner_trivial", lambda ps, support: bases.append(support) or groebner(ps, support)
        )
        cases = [
            # the improper face has a Hensel witness
            ("x^3 + y^4 + x*y^2", []),
            # the improper face has two parallel exponents and no critical
            # point, so only the fallback decides it
            ("2*x*y + 2*x^3 - 3*x^3*y^3", [((1, 1), (3, 0), (3, 3))]),
        ]
        for text, fallback in cases:
            bases.clear()
            f = P(text)
            report = check_noncritical(f)
            poly = build_polyhedron(f)
            polys = [poly.face_polynomial(f, face) for face in poly.faces]
            assert bases == fallback
            assert any(len(g.terms) == 1 for g in polys)
            assert all(fnd.verdict == "non_critical" and fnd.field == "char0"
                       for g, fnd in zip(polys, report.findings) if len(g.terms) == 1)

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
        assert check_noncritical(f).verdict == "non_critical"


class TestModeAgreement:
    CASES = ["x^2", "x^2 + y^3", "x + y", "x^3 + y^3 - 3x*y", "x^2*y + x*y^2 + x^4"]

    @pytest.mark.parametrize("text", CASES)
    def test_exact_and_heuristic_never_contradict(self, monkeypatch, text):
        exact = check_noncritical(P(text)).verdict
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 0)
        heur = check_noncritical(P(text)).verdict
        # the heuristic may fail to decide, but must not flip a decision
        if heur != "inconclusive":
            assert heur == exact


def _det(rows):
    """Determinant by the Leibniz formula (n <= 4 here)."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(row[k] for row, k in zip(rows, perm))
    return total


def _zeros_mod(hull, ell):
    """The torus zeros of the face's hull scan mod ell alone."""
    [(_, zeros)] = noncrit._torus_scans(hull, (ell,))
    return zeros


def _check_hull(f_tau):
    """_hull(f_tau), checked: V has determinant 1 (the identity when d = n),
    d is the affine dimension of the support, and x^w = y^(w V) sends each
    term of f_tau to y^v0 times a term of h, whose exponents start at 0."""
    hull = noncrit._hull(f_tau)
    V, v0, h = hull
    n, d = f_tau.nvars, h.nvars
    assert d == affine_dim(sorted(f_tau.terms)), str(f_tau)
    assert _det(V) == 1, (str(f_tau), V)
    if d == n:
        assert V == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    image = {tuple(sum(w[i] * V[i][j] for i in range(n)) for j in range(n)): c for w, c in f_tau.terms.items()}
    pad = (0,) * (n - d)
    assert image == {tuple(a + b for a, b in zip(v0, e + pad)): c for e, c in h.terms.items()}, str(f_tau)
    assert all(min(e[j] for e in h.terms) == 0 for j in range(d))
    return hull


class TestTorusSlice:
    """Each face is scanned on the d-torus of its own support lattice."""

    PRIMES = (5, 7, 11, 13, 31)

    def test_hull(self):
        assert _check_hull(P("x^3 + y^3 - 3x*y")).V == ((1, 0), (0, 1))
        hull = _check_hull(P("x^3"))
        assert (hull.v0, hull.h.terms) == ((3,), {(): 1})
        hull = _check_hull(P("x^2 + x^3"))
        assert (hull.V, hull.v0, hull.h.terms) == (((1,),), (2,), {(0,): 1, (1,): 1})
        hull = _check_hull(P("x*y*z"))
        assert (hull.v0, hull.h.terms) == ((1, 1, 1), {(): 1})
        # a face on a coordinate axis: y_1 runs along it with exponent +1, so
        # its zeros map back to the slice y = 1 (or x = 1) in the same order
        hull = _check_hull(from_terms(("x", "y"), [((2, 0), 1), ((3, 0), 1)]))
        assert (hull.V, hull.v0) == (((1, 0), (0, 1)), (2, 0))
        hull = _check_hull(from_terms(("x", "y"), [((0, 2), 1), ((0, 3), 1)]))
        assert (hull.V, hull.v0) == (((0, -1), (1, 0)), (2, 0))
        assert _zeros_mod(hull, 7) == [(1, 4)]  # 2y + 3y^2 = 0 at y = -2/3
        # y*w^3 + 2*y^2*z^2: every weight a = (0, 0, 3, 2) shares a factor
        # with 102, yet its hull is a line of 102 points at l = 103
        hull = _check_hull(from_terms(("x", "y", "z", "w"), [((0, 1, 0, 3), 1), ((0, 2, 2, 0), 2)]))
        assert hull.h.nvars == 1

    def test_hull_meets_every_orbit(self, monkeypatch):
        # f = (y^2 - 3x)^2: at l = 7 its partials vanish at (5, 1) but
        # nowhere on x = 1, since 3 is no square mod 7; the hull scan, a
        # line, still meets every orbit of zeros
        f = P("y^4 - 6*x*y^2 + 9*x^2")
        zeros = torus_common_zeros(f.partials(), 7)
        assert (5, 1) in zeros and all(z[0] != 1 for z in zeros)
        hull = _check_hull(f)
        assert hull.h.nvars == 1
        found = _zeros_mod(hull, 7)
        assert found and set(found) <= set(zeros)
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (7,))
        exact = check_noncritical(f)
        assert exact.verdict == "critical"
        assert all(not fnd.disagreeing_primes for fnd in exact.findings)
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 0)
        assert check_noncritical(f).verdict == "inconclusive"

    def test_slice_existence_matches_full_grid(self):
        rng = random.Random(31)
        polys = []
        for _ in range(30):
            polys.append(random_sparse_poly(rng, rng.randint(1, 3), max_terms=4, max_exp=4))
        for _ in range(15):
            # squares have critical faces, so some scans find zeros
            g = random_sparse_poly(rng, rng.randint(2, 3), max_terms=3, max_exp=2, coeff_bound=3)
            polys.append(square(g))
        for _ in range(10):
            # 4-variable faces, most of them with d < n, at small primes
            g = random_sparse_poly(rng, 4, max_terms=2, max_exp=2, coeff_bound=3)
            polys.append(square(g))
            polys.append(random_sparse_poly(rng, 4, max_terms=3, max_exp=3))
        seen = Counter()
        for f in polys:
            poly = build_polyhedron(f)
            for face in poly.faces:
                f_tau = poly.face_polynomial(f, face)
                partials = f_tau.partials()
                hull = _check_hull(f_tau)
                for ell in self.PRIMES if f.nvars < 4 else (2, 3, 5):
                    zeros = _zeros_mod(hull, ell)
                    assert bool(zeros) == torus_has_common_zero(partials, ell), (str(f), str(f_tau), ell)
                    assert all(g.evaluate(z) % ell == 0 for z in zeros[:8] for g in partials)
                    seen["d < n" if hull.h.nvars < f.nvars else "d = n"] += 1
                    seen["4 variables, d < n"] += f.nvars == 4 and hull.h.nvars < 4
                    seen["zeros"] += bool(zeros)
        assert min(seen.values()) > 20, seen

    def test_homogeneous_four_variables(self, monkeypatch):
        f = P("x^2 + y^2 + z^2 + w^2 + 2*x*y")
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (11, 13))
        report = check_noncritical(f)
        assert report.verdict == "inconclusive"
        assert all(fnd.verdict != "critical" for fnd in report.findings)

    def test_grid_budget_counts_scanned_points(self, monkeypatch):
        # the improper face of the quadric has d = 3 and 5 monomials, more
        # than the rank of its 4 system rows, so 10^3 points are scanned at
        # l = 11, where (F_11^x)^4 has 10^4; a limit one below refuses
        # them.  The last polynomial's improper face scans 10^4
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (11,))
        quadric = P("x^2 + y^2 + z^2 + w^2 + x*y")
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 999)
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 3 mod 11 has "
                                             r"10\^3 = 1000 residues, over the limit of 999$"):
            check_noncritical(quadric)
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 1000)
        assert check_noncritical(quadric).verdict == "non_critical"
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 4 mod 11 has "
                                             r"10\^4 = 10000 residues, over the limit of 1000$"):
            check_noncritical(P("x^2 + y^3 + z^5 + w^7 + x*y*z*w"))

    @pytest.mark.parametrize("mode", ["exact_small", "finite_field_heuristic"])
    def test_budget_weight_sharing_factors(self, monkeypatch, mode):
        # x^6 + x^3 y^2 + y^4 has the weight (2, 3), which shares a factor
        # with 6 on both axes: at l = 7 no slice x_j = 1 meets every orbit,
        # so a slice scan covers all 36 points; the hull is a line of 6,
        # scanned since its 3 monomials outrank the system's 2 rows
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (7,))
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 2 if mode == "exact_small" else 0)
        f = P("x^6 + x^3*y^2 + y^4")
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 5)
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 1 mod 7 has "
                                             r"6\^1 = 6 residues, over the limit of 5$"):
            check_noncritical(f)
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 10)
        report = check_noncritical(f)
        assert (report.mode, report.verdict) == (mode, "non_critical")

    def test_budget_four_variables(self, monkeypatch):
        # every face of -y^3 z - w^4 + x^2 y^2 + x y w^2 has affine
        # dimension <= 2: at most 106^2 points per default prime, against
        # 10^6 on a slice of the 4-torus.  The improper face's 4 monomials
        # outrank its 3 rows, so its grid is scanned at each prime
        f = P("-y^3*z - w^4 + x^2*y^2 + x*y*w^2")
        poly = build_polyhedron(f)
        assert max(noncrit._hull(poly.face_polynomial(f, face)).h.nvars for face in poly.faces) == 2
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 106**2 - 1)
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 2 mod 107 has "
                                             r"106\^2 = 11236 residues, over the limit of 11235$"):
            check_noncritical(f, polyhedron=poly)
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 106**2)
        report = check_noncritical(f, polyhedron=poly)
        assert report.verdict == "non_critical"


class TestRankTest:
    """A face whose hull system has a coefficient matrix of rank M (the
    number of monomials of h) mod l has no torus zero, and no grid is
    scanned; every other face is scanned on the axes of its grid."""

    PRIMES = (5, 7, 11, 101)

    @staticmethod
    def _no_grid(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(noncrit, "residue_axes", refuse)

    def test_scans_equal_the_reference(self, monkeypatch):
        rng = random.Random(30)
        polys = [random_sparse_poly(rng, rng.randint(1, 4), max_terms=4, max_exp=4) for _ in range(40)]
        for _ in range(20):
            # squares have critical faces, so some scans find zeros
            g = random_sparse_poly(rng, rng.randint(2, 3), max_terms=3, max_exp=2, coeff_bound=3)
            polys.append(square(g))
        hulls, seen = {}, Counter()
        for f in polys:
            poly = build_polyhedron(f)
            for face in poly.faces:
                hull = noncrit._hull(poly.face_polynomial(f, face))
                hulls.setdefault(hull.h.nvars, {})[hull] = None
        grids = []
        axes = noncrit.residue_axes
        monkeypatch.setattr(noncrit, "residue_axes", lambda ell, d, low: grids.append(ell) or axes(ell, d, low))
        for d in range(4):
            # the reference's d = 3 grid at l = 101 has 10^6 points
            for k, hull in enumerate(list(hulls[d])[:30]):
                for ell in self.PRIMES if d < 3 or k < 3 else self.PRIMES[:3]:
                    before = len(grids)
                    zeros = _zeros_mod(hull, ell)
                    assert zeros == reference_torus_zeros(hull, ell), (hull, ell)
                    kind = "grid, zeros" if zeros else "grid, none" if len(grids) > before else "rank"
                    seen[d, kind] += 1
        assert all(seen[d, "rank"] > 2 for d in range(4)), seen
        assert all(seen[d, "grid, zeros"] > 2 for d in range(1, 4)), seen
        assert seen[0, "grid, zeros"] and seen[2, "grid, none"], seen

    def test_full_rank_faces_build_no_grid(self, monkeypatch):
        f = P("x^2 + y^3 + z^5")
        poly = build_polyhedron(f)
        hulls = [noncrit._hull(poly.face_polynomial(f, face)) for face in poly.faces]
        self._no_grid(monkeypatch)
        # a simplex face, d + 1 monomials: rank M at l = 7 on every face
        assert [_zeros_mod(hull, 7) for hull in hulls] == [[]] * len(hulls)
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (7, 11, 101))
        assert check_noncritical(f).verdict == "non_critical"
        # at l = 5, which divides the exponent of z^5, the edge y^3 + z^5 has
        # rank 1 < 2 and is scanned
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (5,))
        with pytest.raises(AssertionError, match="a grid was built"):
            check_noncritical(f)

    def test_rank_below_m_without_zeros(self, monkeypatch):
        # the improper face of x^2 + y^2 + x*y^2: d = n = 2, three monomials,
        # rank 2; 2 zeros mod 7, none mod 5, 11 or 101
        hull = noncrit._hull(P("x^2 + y^2 + x*y^2"))
        rows = [[c * (hull.v0[j] + e[j]) for e, c in hull.h.terms.items()] for j in range(2)]
        assert [noncrit.rank_mod(rows, ell) for ell in self.PRIMES] == [2] * 4
        counts = [len(_zeros_mod(hull, ell)) for ell in self.PRIMES]
        assert counts == [0, 2, 0, 0]
        assert [_zeros_mod(hull, ell) for ell in self.PRIMES] == [
            reference_torus_zeros(hull, ell) for ell in self.PRIMES
        ]
        self._no_grid(monkeypatch)
        with pytest.raises(AssertionError, match="a grid was built"):
            _zeros_mod(hull, 5)

    def test_vertex_at_a_large_prime(self, monkeypatch):
        # a d = 0 face at l near 3 * 10^9 (l^2 < 2^63): rank 1 unless l
        # divides gcd(v0) c, and then the one point of the empty grid
        ell = 3000000019
        x2y3 = from_terms(("x", "y"), [((2, 3), 1)])
        scaled = from_terms(("x", "y"), [((2, 3), ell)])
        assert _zeros_mod(noncrit._hull(scaled), ell) == [(1, 1)]
        assert reference_torus_zeros(noncrit._hull(scaled), ell) == [(1, 1)]
        self._no_grid(monkeypatch)
        assert _zeros_mod(noncrit._hull(x2y3), ell) == []
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (ell,))
        monkeypatch.setattr(noncrit, "EXACT_MAX_NVARS", 0)
        report = check_noncritical(x2y3)
        assert report.verdict == "non_critical"

    def test_zeros_map_back_through_negative_exponents(self):
        # V has entries -1, so x = y^-1 mod l, at a prime where y^(l - 2)
        # would need an exponent over MAX_EXPONENT
        f_tau = P("x^4 - 4*x^2*y^3 + 4*y^6")
        ell = 1000003
        assert noncrit._hull(f_tau).V == ((-1, 3), (-1, 2))
        zeros = _zeros_mod(noncrit._hull(f_tau), ell)
        assert zeros == [(500002, 500002)]  # x = y = 1/2 mod l
        assert all(g.evaluate(zeros[0]) % ell == 0 for g in f_tau.partials())

    def test_rank_rule_comes_before_the_grid_limit(self, monkeypatch):
        # every face of x^2 + y^3 + z^5 has rank M at l = 101: the facet's
        # 100^2 points are over the limit, but no grid is asked for, so
        # none is refused.  At l = 5 the edge y^3 + z^5 has rank 1 < 2,
        # and its grid is scanned, so the limit binds
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 100)
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (101,))
        assert check_noncritical(P("x^2 + y^3 + z^5")).verdict == "non_critical"
        monkeypatch.setattr(mpoly, "RESIDUE_LIMIT", 3)
        monkeypatch.setattr(noncrit, "AUX_PRIMES", (5,))
        with pytest.raises(ValueError, match=r"^a residue domain of dimension 1 mod 5 has "
                                             r"4\^1 = 4 residues, over the limit of 3$"):
            check_noncritical(P("x^2 + y^3 + z^5"))


# check_noncritical(f).as_dict() in the finite-field heuristic, recorded with the
# full-torus scan, before the slice: 40 polynomials drawn by
# random_sparse_poly(random.Random(4), 3, max_terms=5, max_exp=4,
# coeff_bound=5) and two with singular faces, at aux primes (7, 11, 13, 31);
# then x*y*z and x^2 + y^2 + z^2 at the default primes.
with open(os.path.join(os.path.dirname(__file__), "data", "golden_noncrit_heuristic.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: str(e["terms"])[:60])
def test_heuristic_report_matches_golden(monkeypatch, entry):
    f = from_terms(entry["variables"], [(tuple(e), c) for e, c in entry["terms"]])
    if entry["aux_primes"] is not None:
        monkeypatch.setattr(noncrit, "AUX_PRIMES", tuple(entry["aux_primes"]))
    report = check_noncritical(f)
    assert json.dumps(report.as_dict()) == entry["report"]
