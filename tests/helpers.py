"""Shared helpers for the test suite.

Everything here is deliberately independent of the library's own linear
algebra so that geometric checks cross-verify rather than echo the
implementation.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

from igusa.mpoly import Polynomial, from_terms
from igusa.spf import ResidueDomain, SPFCounts


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


def reference_spf_counts(f: Polynomial, D: ResidueDomain) -> SPFCounts:
    """``spf_counts`` by a scalar loop: every residue of D in sorted order,
    f and each partial evaluated exactly and reduced mod p."""
    partials = f.partials()
    nonzero = 0
    smooth = 0
    singular = []
    for r in sorted(D.residues):
        if f.evaluate(r) % D.p != 0:
            nonzero += 1
        elif all(g.evaluate(r) % D.p == 0 for g in partials):
            singular.append(r)
        else:
            smooth += 1
    scale = Fraction(1, D.p**D.dim)
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
    is admissible for Newton-polyhedron construction downstream.
    """
    names = ("x", "y", "z", "w")[:nvars]
    nterms = rng.randint(1, max_terms)
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


def poly_in_box(facets, bound: int, n: int):
    """Lattice points of {x >= 0 : a.x >= m for all facets} with coords <= bound."""
    out = []
    for pt in itertools.product(range(bound + 1), repeat=n):
        if all(sum(a * w for a, w in zip(f.normal, pt)) >= f.m for f in facets):
            out.append(pt)
    return out
