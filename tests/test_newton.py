import contextlib
import io
import itertools
import json
import os
import random

import pytest

from helpers import (
    Cone,
    affine_dim,
    cone_contains,
    cone_of_face,
    poly_in_box,
    random_sparse_poly,
    reference_polyhedron,
)
from reference import first_meet_locus, m_of, proper_faces
from igusa import _linalg, newton
from igusa.cli import main
from igusa.cli import parse_polynomial as P
from igusa.mpoly import from_terms
from igusa.newton import build_polyhedron


class TestFacets:
    def test_cusp_pair(self):
        poly = build_polyhedron(P("x^2 + y^3"))
        assert sorted((f.normal, f.m) for f in poly.facets) == [
            ((0, 1), 0),
            ((1, 0), 0),
            ((3, 2), 6),
        ]

    def test_diagonal_line(self):
        poly = build_polyhedron(P("x + y"))
        assert sorted((f.normal, f.m) for f in poly.facets) == [
            ((0, 1), 0),
            ((1, 0), 0),
            ((1, 1), 1),
        ]

    def test_single_variable(self):
        poly = build_polyhedron(P("x"))
        assert [(f.normal, f.m) for f in poly.facets] == [((1,), 1)]

    def test_zero_polynomial_rejected(self):
        from igusa.mpoly import from_terms

        with pytest.raises(ValueError):
            build_polyhedron(from_terms(("x",), []))

    @pytest.mark.parametrize("text, message", [
        ("x + y + z + u + v", r"^too many variables \(5 > 4\)$"),
        (" + ".join(f"x^{k}" for k in range(1, 32)), r"^support too large \(31 > 30\)$"),
    ])
    def test_oversized_input_refused(self, text, message):
        with pytest.raises(ValueError, match=message):
            build_polyhedron(P(text))

    @pytest.mark.parametrize("other", ["x^2 + y^5", "a^2 + b^3"])
    def test_face_polynomial_of_another_polynomial_refused(self, other):
        poly = build_polyhedron(P("x^2 + y^3"))
        with pytest.raises(ValueError, match="^polynomial does not match this polyhedron$"):
            poly.face_polynomial(P(other), poly.faces[0])

    def test_normals_are_primitive_naturals(self):
        from math import gcd

        rng = random.Random(7)
        for _ in range(10):
            f = random_sparse_poly(rng, rng.randint(1, 3))
            poly = build_polyhedron(f)
            for facet in poly.facets:
                assert all(a >= 0 for a in facet.normal)
                assert gcd(*facet.normal) == 1


class TestWeights:
    def setup_method(self):
        self.poly = build_polyhedron(P("x^2 + y^3"))

    def test_m_of_examples(self):
        assert m_of(self.poly, (1, 1)) == 2
        assert m_of(self.poly, (3, 2)) == 6
        assert m_of(self.poly, (0, 1)) == 0
        assert m_of(self.poly, (0, 0)) == 0

    def test_first_meet_locus(self):
        improper = first_meet_locus(self.poly, (0, 0))
        assert improper.containing_facets == ()
        edge = first_meet_locus(self.poly, (3, 2))
        assert edge.meet_support == frozenset({(2, 0), (0, 3)})
        vertex = first_meet_locus(self.poly, (1, 1))
        assert vertex.meet_support == frozenset({(2, 0)})

    def test_face_polynomial(self):
        f = P("x^2 + y^3")
        edge = first_meet_locus(self.poly, (3, 2))
        assert self.poly.face_polynomial(f, edge) == f
        vertex = first_meet_locus(self.poly, (1, 1))
        # the face polynomial keeps the ambient variable tuple
        assert self.poly.face_polynomial(f, vertex) == from_terms(("x", "y"), [((2, 0), 1)])

    def test_cone_of_face_is_strict(self):
        edge = first_meet_locus(self.poly, (3, 2))
        cone = cone_of_face(self.poly, edge)
        assert cone.generators == ((3, 2),)
        assert cone_contains(cone, (6, 4))
        vertex = cone_of_face(self.poly, first_meet_locus(self.poly, (1, 1)))
        assert cone_contains(vertex, (1, 1))
        # the wall shared with the edge's cone is not in the open cone
        assert not cone_contains(vertex, (3, 2))


def _check_h_v_consistency(f):
    """Facets are valid inequalities, tight on a full-dimensional face,
    and reproduce the support-minimum for arbitrary weights."""
    poly = build_polyhedron(f)
    n = poly.n
    support = sorted(poly.support)
    for facet in poly.facets:
        dots = [sum(a * w for a, w in zip(facet.normal, s)) for s in support]
        assert all(d >= facet.m for d in dots), (f, facet)
        meet = [s for s, d in zip(support, dots) if d == facet.m]
        assert frozenset(meet) == facet.meet_support
        if n >= 2:
            # tight points plus coordinate rays of the facet must span
            # the facet hyperplane (affine dimension n - 1)
            ray_points = []
            for i in facet.rays:
                base = meet[0]
                ray_points.append(tuple(b + (10 if j == i else 0) for j, b in enumerate(base)))
            assert affine_dim(meet + ray_points) == n - 1, (f, facet)
    # dual route: minimum over the H-representation lattice box equals
    # the support minimum, for random natural weights
    bound = max(max(s) for s in support) + 1
    box = poly_in_box(poly.facets, bound, n)
    assert set(support) <= set(box)
    rng = random.Random(str(f))  # str hashes are salted per process; the text is not
    for _ in range(6):
        a = tuple(rng.randint(0, 5) for _ in range(n))
        h_min = min(sum(ai * wi for ai, wi in zip(a, pt)) for pt in box)
        assert h_min == m_of(poly, a), (f, a)


def _check_cone_partition(f, bound=6):
    """Every natural weight vector lies in the cone of exactly one face,
    and that face is its first meet locus."""
    poly = build_polyhedron(f)
    n = poly.n
    for a in itertools.product(range(bound + 1), repeat=n):
        face = first_meet_locus(poly, a)
        if all(x == 0 for x in a):
            assert face.containing_facets == ()
            continue
        owners = []
        for other in proper_faces(poly):
            cone = cone_of_face(poly, other)
            if cone_contains(cone, a):
                owners.append(other)
        assert len(owners) == 1, (f, a, owners)
        assert owners[0] == face, (f, a)


def _check_cone_dimension(f):
    poly = build_polyhedron(f)
    n = poly.n
    for face in proper_faces(poly):
        cone = cone_of_face(poly, face)
        assert cone.dim == n - face.dim, (f, face)


class TestPolyhedronGeometry:
    CORPUS = [
        "x^2 + y^3",
        "x + y",
        "x",
        "x^4",
        "x^2 + y^2",
        "x^3 + x*y + y^3",
        "x^2*y + x*y^2",
        "x^2 + y^3 + z^4",
        "x*y*z",
        "x^2 + y^2 + z^2",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_h_v_consistency(self, text):
        _check_h_v_consistency(P(text))

    @pytest.mark.parametrize("text", CORPUS)
    def test_cone_partition(self, text):
        _check_cone_partition(P(text), bound=4)

    @pytest.mark.parametrize("text", CORPUS)
    def test_cone_dimension(self, text):
        _check_cone_dimension(P(text))

    def test_random_corpus(self):
        rng = random.Random(20240817)
        for _ in range(8):
            f = random_sparse_poly(rng, rng.randint(1, 3), max_terms=3, max_exp=5)
            _check_h_v_consistency(f)
            _check_cone_dimension(f)
            _check_cone_partition(f, bound=4)

    def test_as_dict_shape(self):
        d = build_polyhedron(P("x^2 + y^3")).as_dict()
        assert set(d) >= {"facets", "faces"}
        normals = sorted(tuple(f["normal"]) for f in d["facets"])
        assert normals == [(0, 1), (1, 0), (3, 2)]
        assert all(set(f) >= {"normal", "m"} for f in d["facets"])


# 3- and 4-variable polynomials of 8 to 20 terms, drawn once at random
POLES_CORPUS = [
    "-x^4*y*z^2 - 2*x^4*z^4 + x^3*z^4 + x^3*z + x^2*y*z^3 + 3*y^4 - 2*y - z^3",
    "x^5*y*z^2 + 2*x^4*z^4 - 2*x^3*y^2*z^3 + 2*x^3*y^2*z^2 + x^3*z^5 + 3*x^3"
    " + x*y^5*z - 2*x*y^4 - x*y^2*z - 2*x*z^4 + 3*z^5 - z^4",
    "-2*x^5*z^3 - x^4*y^2*z + x^4*z^3 + x^4 + x^3*y*z + 3*x^3*y - x^3*z^3"
    " + 2*x^2*y^2 + 2*x*y^2*z + 2*x*y*z + 2*y^3*z^4 + 2*y^3*z^2 + y^2*z^4"
    " - y*z^4 - y*z^3 + 2*y",
    "3*x^5 + 3*x^4*z^3 + 2*x^3*y^5 + x^3*y^3*z^2 - 2*x^3*y^2*z + 3*x^3*y*z^3"
    " - 2*x^2*y^5*z + 2*x^2*y^2 - 2*x^2*y*z^3 + 2*x^2*y*z^2 + 3*x*y^5*z^2"
    " + 3*x*y^4*z^3 + 2*x*y*z^3 + 3*x*z^5 - y^5*z^3 + y^4*z^2 + 2*y^3*z^5"
    " + 3*y*z^4 + 2*y*z^3 - z^3",
    "3*x^4*z*w + 3*x^3*y*z + 2*x*y^4*w - 2*x*y^2*z^4*w - 2*x*y*w - x*z^5*w^2"
    " - 2*y^4*w^2 - 2*z^4*w^3",
    "x^4*w + 2*x^3*y^3*z^2 + x^3*z^2 + x^2*z^4*w + 2*x^2*z^2 + 3*x^2*z*w^5"
    " - x*y^5*z*w + x*y^3*z*w^3 + 3*x*y^2*z^2 + 2*x*y^2*z*w^3 + 2*y^2*z^2"
    " - 2*z^3*w^2",
    "-x^4*y*z^2 + x^3*z^3*w^2 + 2*x^3*z^2*w^2 + x^2*y^3*z + 3*x^2*y^3*w^2"
    " + x^2*y^2*w^2 + 2*x^2*z^3*w + 3*x^2*z^3 + 3*x*y^4 - x*y^3*z^2 + x*z*w^2"
    " + 2*x - y^2*z^3 + 2*y^2*z*w^5 + 2*y^2*z*w^2 + y*z^3*w^4",
    "2*x^5*y*w^2 + 3*x^4*z^2*w + 2*x^3*y^3*z + x^3*y^2*w + x^3*z^4 - 2*x^3*w^3"
    " - x^2*y^4*z - 2*x^2*z^3*w^3 + 3*x^2*w^5 + x*y^3*z^2*w^2 - 2*x*y^3*z^2*w"
    " + 3*x*y*z^4 + 3*x*y*w + 2*x*z^4 - x*z*w^4 + y^2*z^3*w^2 - 2*y^2*z^3"
    " + 3*y^2*w^2 - y*w^3 - 2*z^2*w^4",
]


class TestManyVariables:
    @pytest.mark.parametrize("text", POLES_CORPUS)
    def test_h_v_consistency(self, text):
        _check_h_v_consistency(P(text))

    @pytest.mark.parametrize("text", POLES_CORPUS)
    def test_cone_dimension(self, text):
        _check_cone_dimension(P(text))

    # each has one to three vertex cones that are not simplicial
    @pytest.mark.parametrize("text", POLES_CORPUS[:4])
    def test_cone_partition(self, text):
        _check_cone_partition(P(text), bound=3)


def test_random_sparse_poly_caps_its_terms():
    # only x and x^2 are admissible: asking for 3 terms once looped forever
    for seed in range(50):
        f = random_sparse_poly(random.Random(seed), 1, max_terms=3, max_exp=2)
        assert 1 <= len(f.terms) <= 2 and f.constant_term() == 0


def _random_support_poly(rng, n, nterms, on_axes=0.0):
    """Up to nterms monomials, some of them dominated by others, and a
    share on_axes of the others moved onto a coordinate hyperplane."""
    names = ("x", "y", "z", "w")[:n]
    exps = set()
    while len(exps) < nterms:
        if exps and rng.random() < 0.3:
            base = rng.choice(sorted(exps))
            e = tuple(b + rng.randint(0, 2) for b in base)
        else:
            e = tuple(rng.randint(0, 5) for _ in range(n))
            if on_axes and rng.random() < on_axes:
                i = rng.randrange(n)
                e = e[:i] + (0,) + e[i + 1:]
        if any(e):
            exps.add(e)
    return from_terms(names, [(e, 1) for e in sorted(exps)])


def _face_order(d):
    d = dict(d)
    d["faces"] = sorted(d["faces"], key=lambda fc: (fc["dim"], fc["support"], fc["facets"]))
    return d


class TestAgainstReference:
    def test_random_supports(self):
        rng = random.Random(20261018)
        for i in range(40):
            f = _random_support_poly(rng, 1 + i % 4, rng.randint(1, 20))
            assert _face_order(build_polyhedron(f).as_dict()) == reference_polyhedron(f), f

    def test_seeded_corpus(self):
        rng = random.Random(20261019)
        for i in range(300):
            f = _random_support_poly(rng, 1 + i % 4, rng.randint(1, 12), on_axes=0.3)
            assert _face_order(build_polyhedron(f).as_dict()) == reference_polyhedron(f), f

    def test_sum_eight_slice(self):
        # 20 points of the 165 with w_1 + ... + w_4 = 8: no point is dominated
        slice8 = [w for w in itertools.product(range(9), repeat=4) if sum(w) == 8]
        f = from_terms(("x", "y", "z", "w"), [(w, 1) for w in random.Random(8).sample(slice8, 20)])
        assert _face_order(build_polyhedron(f).as_dict()) == reference_polyhedron(f)

    @pytest.mark.parametrize("text, facets", [
        ("x^3 + x^5", [((1,), 3)]),
        ("x*y*z", [((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)]),
        # the non-minimal point x*y lies on the facet x >= 1
        ("x + x*y", [((0, 1), 0), ((1, 0), 1)]),
    ])
    def test_edge_cases(self, text, facets):
        f = P(text)
        poly = build_polyhedron(f)
        assert [(ft.normal, ft.m) for ft in poly.facets] == facets
        assert _face_order(poly.as_dict()) == reference_polyhedron(f)

    # Three collinear minimal points, such as (1, 0, 2, 0), (1, 1, 1, 1) and
    # (1, 2, 0, 2), let two rays that are not adjacent share n - 1 zero
    # constraints: here the count alone does not decide adjacency.
    @pytest.mark.parametrize("support", [
        [(0, 1, 2, 2), (1, 0, 2, 0), (1, 1, 1, 1), (1, 2, 0, 2), (2, 0, 1, 2), (2, 1, 2, 1),
         (2, 2, 0, 1)],
        [(0, 2, 2, 2), (1, 0, 1, 2), (1, 1, 0, 2), (1, 1, 1, 1), (1, 1, 2, 0), (1, 1, 2, 2),
         (2, 1, 0, 2), (2, 1, 1, 0), (2, 1, 2, 2), (2, 2, 1, 2)],
    ])
    def test_collinear_minimal_points(self, support):
        f = from_terms(("x", "y", "z", "w"), [(w, 1) for w in support])
        assert _face_order(build_polyhedron(f).as_dict()) == reference_polyhedron(f)

    def test_missing_vertex_is_refused(self, monkeypatch):
        """Without the lexicographically first support point, which is
        always a vertex, the facets found describe a smaller polyhedron;
        the check of each facet against the full support must refuse
        them rather than return a wrong polyhedron."""
        keep = newton._minimal_points
        monkeypatch.setattr(newton, "_minimal_points", lambda support: keep(support)[1:])
        rng = random.Random(20261020)
        tried = 0
        while tried < 100:
            f = _random_support_poly(rng, rng.randint(2, 4), rng.randint(2, 12), on_axes=0.3)
            if len(keep(sorted(f.support()))) < 2:
                continue
            tried += 1
            with pytest.raises(AssertionError):
                build_polyhedron(f)

    def test_integer_kernel_matches_rational_elimination(self):
        # the rank, and for a square matrix whether it is singular, the one
        # question noncrit's Sylvester matrices ask
        from helpers import exact_rank

        def laplace(m):
            if not m:
                return 1
            return sum((-1) ** j * m[0][j] * laplace([r[:j] + r[j + 1:] for r in m[1:]])
                       for j in range(len(m)))

        rng = random.Random(11)
        for _ in range(2000):
            rows, cols = rng.randint(0, 4), rng.randint(1, 4)
            m = [[rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(cols)] for _ in range(rows)]
            assert _linalg.rank(m) == exact_rank(m), m
            if rows == cols:
                assert (_linalg.rank(m) < len(m)) == (laplace(m) == 0), m

    def test_rank_mod_matches_reference_elimination(self):
        from helpers import exact_rank, rank_mod

        rng = random.Random(12)
        for _ in range(2000):
            ell = rng.choice([2, 3, 5, 7, 101])
            rows, cols = rng.randint(0, 4), rng.randint(1, 4)
            m = [[rng.choice([0, 1, -1, 2, ell, -ell, ell + 3, 10**20 + 7]) for _ in range(cols)]
                 for _ in range(rows)]
            assert _linalg.rank_mod(m, ell) == rank_mod(m, ell), (m, ell)
            assert _linalg.rank_mod(m, ell) <= exact_rank(m)


# `igusa analyze` and `igusa poles` stdout on the analyze benchmark pool and
# the README examples, recorded before the facet enumeration changed.  The
# nine exact-mode witnesses that sympy's solver found were then replaced by
# Hensel-certified zeros mod an auxiliary prime ("86 mod 103"); every other
# byte is as first recorded.
with open(os.path.join(os.path.dirname(__file__), "data", "golden_analyze_poles.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"])[:60])
def test_cli_output_matches_golden(entry):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(entry["argv"]))
    assert code == entry["code"]
    assert out.getvalue() == entry["stdout"]


# `igusa analyze` stdout for 3- and 4-variable inputs, recorded while the
# face lattice was still built with every polyhedron.  Many of their faces
# tie on dimension and support, so the bytes pin the lattice's discovery
# order as well as its faces.
with open(os.path.join(os.path.dirname(__file__), "data", "golden_analyze_many_vars.json")) as fh:
    GOLDEN_MANY_VARS = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN_MANY_VARS, ids=lambda e: " ".join(e["argv"]))
def test_many_variable_analyze_matches_golden(entry):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(entry["argv"]))
    assert code == entry["code"]
    assert out.getvalue() == entry["stdout"]


class TestLatticeOnDemand:
    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            return main(argv)

    def test_poles_and_verify_build_no_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the face lattice was built")

        monkeypatch.setattr(newton, "_face_lattice", refuse)
        assert self._main(["poles", "-f", "x^2*y + y^3*z + z^4", "-g", "w^3 + w*v^2"]) == 0
        assert self._main(["verify", "-f", "x^2", "-g", "y^3", "-p", "5", "--depth", "8"]) == 0

    def test_analyze_builds_the_lattice_once(self, monkeypatch):
        calls = []
        build = newton._face_lattice

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(newton, "_face_lattice", counted)
        assert self._main(["analyze", "-f", "x^3 + y^4 + x*y^2", "-g", "z^2 + w^5"]) == 0
        assert len(calls) == 1


class TestConeContains:
    # (generators, point, inside the open cone)
    TABLE = [
        # a single ray
        (((3, 2),), (3, 2), True),
        (((3, 2),), (6, 4), True),
        (((3, 2),), (0, 0), False),
        (((3, 2),), (1, 1), False),
        (((3, 2),), (-3, -2), False),
        # a redundant middle generator
        (((1, 0), (1, 1), (0, 1)), (1, 1), True),
        (((1, 0), (1, 1), (0, 1)), (2, 1), True),
        (((1, 0), (1, 1), (0, 1)), (1, 5), True),
        (((1, 0), (1, 1), (0, 1)), (1, 0), False),
        (((1, 0), (1, 1), (0, 1)), (0, 3), False),
        (((1, 0), (1, 1), (0, 1)), (0, 0), False),
        (((1, 0), (1, 1), (0, 1)), (2, -1), False),
        (((2, 1), (1, 1), (1, 3)), (3, 2), True),
        (((2, 1), (1, 1), (1, 3)), (4, 2), False),
        (((2, 1), (1, 1), (1, 3)), (1, 4), False),
        (((2, 1), (1, 1), (1, 3)), (1, 2), True),
        # four generators in 3-D: the open orthant
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (1, 1, 1), True),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (1, 2, 3), True),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (1, 1, 0), False),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (0, 0, 5), False),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (0, 0, 0), False),
        # a rank-2 cone in 3-D, with and without a redundant generator
        (((1, 0, 1), (0, 1, 1)), (1, 1, 2), True),
        (((1, 0, 1), (0, 1, 1)), (2, 1, 3), True),
        (((1, 0, 1), (0, 1, 1)), (1, 0, 1), False),
        (((1, 0, 1), (0, 1, 1)), (1, 1, 1), False),
        (((1, 0, 1), (0, 1, 1)), (1, 1, 3), False),
        (((1, 0, 1), (1, 1, 2), (0, 1, 1)), (1, 1, 2), True),
        (((1, 0, 1), (1, 1, 2), (0, 1, 1)), (0, 2, 2), False),
        (((1, 0, 1), (1, 1, 2), (0, 1, 1)), (2, 2, 3), False),
        # an open simplicial cone in 3-D
        (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (3, 2, 1), True),
        (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (2, 2, 1), True),
        (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (1, 1, 1), False),
        (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (2, 1, 1), False),
        (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (1, 1, 2), False),
        (((1, 0, 0), (0, 1, 0), (1, 1, 1)), (1, 1, 0), False),
    ]

    @pytest.mark.parametrize("gens, point, inside", TABLE)
    def test_membership(self, gens, point, inside):
        assert cone_contains(Cone(gens), point) == inside

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            Cone(((0, 0),))
