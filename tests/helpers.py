"""Shared helpers for the test suite.

Everything here is deliberately independent of the library's own linear
algebra so that geometric checks cross-verify rather than echo the
implementation.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import List, Sequence, Tuple

from igusa.mpoly import Polynomial, _term_sort_key, from_terms
from igusa.numeric import DEFAULT_BUDGET
from igusa.oracle import _ball_counter
from igusa.spf import SPFCounts, _grid_counts


def _reduce(mat: List[List[Fraction]], ncols: int) -> List[int]:
    """Reduced row echelon form over Q, in place; returns the pivot columns."""
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [x / inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return pivots


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by Gaussian elimination over Q."""
    mat: List[List[Fraction]] = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    return len(_reduce(mat, len(mat[0])))


def _nullspace(rows: Sequence[Sequence[int]], ncols: int) -> List[List[Fraction]]:
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = _reduce(mat, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(mat, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def _primitive(vec: Sequence[Fraction]) -> Tuple[int, ...]:
    """Primitive integer multiple of a nonzero rational vector, first
    nonzero entry positive."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x != 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def reference_polyhedron(f: Polynomial) -> dict:
    """``as_dict()`` of the Newton polyhedron of f by the slow route.

    Candidate normals are Fraction nullspaces of n - 1 directions drawn
    from every subset of the support (not only its minimal points) plus
    coordinate rays; faces are closed under facet intersection.  Faces
    are sorted by (dim, support, containing facets), so compare against
    a face list sorted the same way.
    """
    n = f.nvars
    support = sorted(f.support())
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def dot(a, w):
        return sum(x * y for x, y in zip(a, w))

    def dim(meet, rays):
        return affine_dim(list(meet) + [tuple(b + u for b, u in zip(meet[0], units[i])) for i in rays])

    facets = {}
    for k in range(1, n + 1):
        for pts in itertools.combinations(support, k):
            diffs = [tuple(p - q for p, q in zip(pt, pts[0])) for pt in pts[1:]]
            for rays in itertools.combinations(range(n), n - k):
                ns = _nullspace(diffs + [units[i] for i in rays], n)
                if len(ns) != 1:
                    continue
                a = _primitive(ns[0])
                if any(x < 0 for x in a) or a in facets:
                    continue
                m = min(dot(a, w) for w in support)
                meet = sorted(w for w in support if dot(a, w) == m)
                ray_set = [i for i, x in enumerate(a) if x == 0]
                if dim(meet, ray_set) == n - 1:
                    facets[a] = (m, frozenset(meet), frozenset(ray_set))
    normals = sorted(facets)
    keys = {facets[a][1:] for a in normals}
    queue = list(keys)
    while queue:
        meet, rays = queue.pop()
        for a in normals:
            key = (meet & facets[a][1], rays & facets[a][2])
            if key[0] and key not in keys:
                keys.add(key)
                queue.append(key)
    faces = [
        {
            "support": [list(w) for w in sorted(meet)],
            "facets": [i for i, a in enumerate(normals) if meet <= facets[a][1] and rays <= facets[a][2]],
            "dim": dim(sorted(meet), sorted(rays)),
        }
        for meet, rays in keys
    ]
    faces.append({"support": [list(w) for w in support], "facets": [], "dim": n})
    faces.sort(key=lambda fc: (fc["dim"], fc["support"], fc["facets"]))
    return {
        "facets": [{"normal": list(a), "m": facets[a][0]} for a in normals],
        "faces": faces,
        "support": [list(w) for w in support],
    }


@dataclass(frozen=True)
class Cone:
    """The strictly positive span of nonzero integer generators.

    A face cone is open: its points are the positive combinations of
    the generators, the relative interior of the closed cone.
    """

    generators: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("cone needs at least one generator")
        n = len(self.generators[0])
        for g in self.generators:
            if len(g) != n:
                raise ValueError("mixed generator dimensions")
            if all(x == 0 for x in g):
                raise ValueError("zero generator")

    @property
    def dim(self) -> int:
        return exact_rank(self.generators)


def cone_of_face(poly, face) -> Cone:
    """Strictly positive span of the normals of the facets containing a
    proper face of the polyhedron."""
    if not face.containing_facets:
        raise ValueError("the improper face has no cone")
    return Cone(tuple(poly.facets[i].normal for i in face.containing_facets))


def _cone_hrep(generators: Sequence[Tuple[int, ...]]):
    """Facet inequalities of the closed cone, in span coordinates.

    Returns (facet_normals, span_coords): v lies in the closed cone
    when span_coords(v) is not None and h.span_coords(v) >= 0 for
    every h.  A vector is in the span when adding it keeps the rank r;
    its coordinates are its entries on r axes where the generators have
    rank r, which map the span one to one into Z^r.  Valid for pointed
    cones, which all cones here are (generators live in the positive
    orthant).
    """
    gens = [tuple(g) for g in generators]
    r = exact_rank(gens)
    axes: List[int] = []
    for i in range(len(gens[0])):
        if len(axes) == r:
            break
        if exact_rank([[g[j] for j in axes + [i]] for g in gens]) > len(axes):
            axes.append(i)

    def span_coords(v):
        if exact_rank(gens + [tuple(v)]) != r:
            return None
        return tuple(v[i] for i in axes)

    coords = [span_coords(g) for g in gens]
    if r == 1:
        # single ray: the "facet" is the origin; use the ray functional itself
        return [(1 if coords[0][0] > 0 else -1,)], span_coords
    normals = []
    for subset in itertools.combinations(range(len(gens)), r - 1):
        kernel = _nullspace([coords[i] for i in subset], r)
        if len(kernel) != 1:
            continue
        h = _primitive(kernel[0])
        sides = [sum(a * b for a, b in zip(h, c)) for c in coords]
        if all(s <= 0 for s in sides):
            h = tuple(-x for x in h)
            sides = [-s for s in sides]
        elif not all(s >= 0 for s in sides):
            continue
        tight = [gens[i] for i, s in enumerate(sides) if s == 0]
        if tight and exact_rank(tight) == r - 1 and h not in normals:
            normals.append(h)
    return normals, span_coords


def cone_contains(cone: Cone, v: Sequence[int]) -> bool:
    """Whether v is a positive combination of the cone's generators,
    i.e. lies in the relative interior of the closed cone."""
    normals, span_coords = _cone_hrep(cone.generators)
    c = span_coords(v)
    return c is not None and all(sum(a * b for a, b in zip(h, c)) > 0 for h in normals)


def graded_lex(f: Polynomial) -> tuple:
    """The terms of f in graded-lex order: a node of ``spf``'s recursion."""
    return tuple(sorted(f.terms.items(), key=lambda term: _term_sort_key(term[0])))


def reduced(f: Polynomial, p: int) -> tuple:
    """The terms of f mod p whose coefficient is nonzero mod p, in graded-lex
    order: what ``_classify`` and ``spf._grid_counts`` take for f."""
    return tuple((e, c % p) for e, c in graded_lex(f) if c % p)


def refuse_arrays(monkeypatch):
    """Make ``numpy.arange``, with which ``residue_axes`` builds every
    grid, raise: a refusal that still passes built no residue."""
    import numpy

    def refuse(*args, **kwargs):
        raise AssertionError("a residue was built")

    monkeypatch.setattr(numpy, "arange", refuse)


def grid_counts(f: Polynomial, p: int, low: int = 0) -> SPFCounts:
    """The ``SPFCounts`` of f on {low..p-1}^n, by ``spf._grid_counts``."""
    return _grid_counts(reduced(f, p), p, f.nvars, low)[0]


def ball_count(f: Polynomial, p: int, precision: int):
    """(balls, nodes) of f at a precision, from a counter of its own on the
    default budget: ``oracle._ball_counter(p, DEFAULT_BUDGET)(f, precision)``."""
    return _ball_counter(p, DEFAULT_BUDGET)(f, precision)


def reference_spf_counts(f: Polynomial, p: int, low: int = 0) -> SPFCounts:
    """``spf._grid_counts``' counts by a scalar loop: every residue of
    {low..p-1}^n in sorted order, f and each partial evaluated exactly and
    reduced mod p."""
    partials = f.partials()
    nonzero = 0
    smooth = 0
    singular = []
    for r in itertools.product(range(low, p), repeat=f.nvars):
        if f.evaluate(r) % p != 0:
            nonzero += 1
        elif all(g.evaluate(r) % p == 0 for g in partials):
            singular.append(r)
        else:
            smooth += 1
    scale = Fraction(1, p**f.nvars)
    return SPFCounts(nu=nonzero * scale, sigma=smooth * scale, singular=tuple(singular))


def affine_dim(points: Sequence[Tuple[int, ...]]) -> int:
    """Dimension of the affine hull of a point set (-1 for empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    return exact_rank(diffs)


@functools.lru_cache(maxsize=None)
def _torus_points(ell: int, n: int):
    import numpy as np

    return np.array(list(itertools.product(range(1, ell), repeat=n)), dtype=np.int64)


def torus_common_zeros(polys: Sequence[Polynomial], ell: int) -> List[Tuple[int, ...]]:
    """The common zeros of the polys on the whole torus (F_ell^x)^n, by
    evaluating them at every one of its (ell - 1)^n points."""
    import numpy as np

    grid = _torus_points(ell, polys[0].nvars)
    alive = np.ones(len(grid), dtype=bool)
    for g in polys:
        vals = np.zeros(len(grid), dtype=np.int64)
        for exps, coeff in g.terms.items():
            term = np.full(len(grid), coeff % ell, dtype=np.int64)
            for i, e in enumerate(exps):
                powers = np.array([pow(x, e, ell) for x in range(ell)], dtype=np.int64)
                term = term * powers[grid[:, i]] % ell
            vals = (vals + term) % ell
        alive &= vals == 0
    return [tuple(int(x) for x in row) for row in grid[alive]]


def torus_has_common_zero(polys: Sequence[Polynomial], ell: int) -> bool:
    """Whether the polys share a zero on the whole torus (F_ell^x)^n."""
    return bool(torus_common_zeros(polys, ell))


def reference_torus_zeros(hull, ell: int) -> List[Tuple[int, ...]]:
    """The zeros of a face's hull system on (F_ell^x)^d mapped back to x,
    in lexicographic order: ``torus_common_zeros`` evaluates every
    polynomial of the system at every point of the torus, and Python's pow
    maps a zero y back to x_i = prod_j y_j^V_ij, exponents mod ell - 1."""
    V, v0, h = hull
    d = h.nvars
    system = [Polynomial(h.variables, {e: c * (v0[j] + e[j]) for e, c in h.terms.items()}) for j in range(d)]
    k = gcd(*v0[d:])
    system.append(Polynomial(h.variables, {e: k * c for e, c in h.terms.items()}))
    return [
        tuple(prod(pow(y, e % (ell - 1), ell) for y, e in zip(zero, row)) % ell for row in V)
        for zero in torus_common_zeros(system, ell)
    ]


def rank_mod(rows: Sequence[Sequence[int]], ell: int) -> int:
    """Rank over F_ell of an integer matrix: Gauss-Jordan elimination,
    inverting pivots by Fermat's little theorem."""
    mat = [[x % ell for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], ell - 2, ell)
        mat[rank] = [x * inv % ell for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % ell for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def lifts_mod(partials: Sequence[Polynomial], point: Sequence[int], ell: int) -> bool:
    """Whether point is a common zero mod ell of the nonzero partials at
    which their Jacobian has full row rank mod ell (so Hensel lifts it)."""
    nonzero = [g for g in partials if g.terms]
    if any(g.evaluate(point) % ell for g in nonzero):
        return False
    jacobian = [[g.partial(j).evaluate(point) for j in range(g.nvars)] for g in nonzero]
    return rank_mod(jacobian, ell) == len(nonzero)


def witness_error(f_tau: Polynomial, witness) -> str:
    """Why witness is no torus zero of the partials of f_tau ("" if it is).

    Ints must kill every partial exactly.  Strings "r mod l", one prime
    l for all coordinates, must be a zero mod l at which the Jacobian of
    the nonzero partials has full row rank mod l.
    """
    partials = f_tau.partials()
    if len(witness) != f_tau.nvars:
        return f"arity {len(witness)} != {f_tau.nvars}"
    if all(type(x) is int for x in witness):
        if 0 in witness:
            return "a coordinate is 0"
        if any(g.evaluate(witness) for g in partials):
            return "a partial does not vanish"
        return ""
    try:
        pairs = [tuple(int(v) for v in x.split(" mod ")) for x in witness]
    except (AttributeError, ValueError):
        return f"unreadable witness {witness!r}"
    if any(len(p) != 2 for p in pairs) or len({ell for _, ell in pairs}) != 1:
        return f"not one prime in {witness!r}"
    ell = pairs[0][1]
    point = [r for r, _ in pairs]
    if ell < 2 or any(ell % d == 0 for d in range(2, int(ell**0.5) + 1)):
        return f"{ell} is not prime"
    if not all(0 < r < ell for r in point):
        return "a coordinate is not a unit residue"
    if not lifts_mod(partials, point, ell):
        return "not a zero with a Jacobian of full row rank"
    return ""


def random_sparse_poly(
    rng,
    nvars: int,
    max_terms: int = 4,
    max_exp: int = 6,
    coeff_bound: int = 9,
    origin_vanishing: bool = True,
) -> Polynomial:
    """A random nonzero polynomial with sparse support.

    With origin_vanishing, the constant term is excluded so the result
    is admissible for Newton-polyhedron construction downstream.  The
    number of terms is capped at the number of admissible exponent
    tuples, after it is drawn, so draws the cap does not bind are as
    they were.
    """
    names = ("x", "y", "z", "w")[:nvars]
    admissible = (max_exp + 1) ** nvars - (1 if origin_vanishing else 0)
    nterms = min(rng.randint(1, max_terms), admissible)
    pairs = []
    seen = set()
    while len(pairs) < nterms:
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if origin_vanishing and all(e == 0 for e in exps):
            continue
        if exps in seen:
            continue
        seen.add(exps)
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-coeff_bound, coeff_bound)
        pairs.append((exps, coeff))
    return from_terms(names, pairs)


def square(g: Polynomial) -> Polynomial:
    """g^2, term by term."""
    items = g.terms.items()
    return from_terms(g.variables, ((tuple(map(sum, zip(e, f))), c * d) for e, c in items for f, d in items))


def plus_multiple(f: Polynomial, k: int, g: Polynomial) -> Polynomial:
    """f + k g, on f's variables, term by term."""
    return from_terms(f.variables, [*f.terms.items(), *((e, k * c) for e, c in g.terms.items())])


def poly_in_box(facets, bound: int, n: int):
    """Lattice points of {x >= 0 : a.x >= m for all facets} with coords <= bound."""
    out = []
    for pt in itertools.product(range(bound + 1), repeat=n):
        if all(sum(a * w for a, w in zip(f.normal, pt)) >= f.m for f in facets):
            out.append(pt)
    return out


def sympy_torus_ideal_trivial(partials: Sequence[Polynomial]) -> bool:
    """Reference for the exact decision: whether the partials and
    x_1 ... x_n t - 1 generate (1), by sympy's Groebner basis over Q."""
    import sympy

    symbols = sympy.symbols([f"x{i}" for i in range(partials[0].nvars)] + ["t"])
    xs, t = symbols[:-1], symbols[-1]
    system = [
        sum(c * sympy.prod([s**e for s, e in zip(xs, exps)]) for exps, c in g.terms.items())
        for g in partials
        if not g.is_zero()
    ]
    gb = sympy.groebner(system + [sympy.prod(xs) * t - 1], *xs, t, order="grevlex", domain=sympy.QQ)
    return list(gb.exprs) == [sympy.Integer(1)]
