"""Newton polyhedra of polynomials vanishing at the origin.

The Newton polyhedron of f is the convex hull of supp(f) + R_{>=0}^n.
Because its recession cone is the whole positive orthant, every facet
has a unique primitive inward normal with natural coordinates, and the
facet data (normal a, weight m = min a.omega over the support, meet
set) determines everything else.  The faces are the nonempty
intersections of facets, built on first read in one pass that also
records each face's facets; a face's dimension is n minus the rank of
the normals of its facets.  The tests read the first meet locus of a
weight vector off the faces (``tests/reference.py``).

Facets are the extreme rays of the cone of valid inequalities, listed
by the double description method (Motzkin, Raiffa, Thompson & Thrall,
1953; Fukuda & Prodon, *Double description method revisited*, 1996)
over the minimal support points (no other support point lies below
them coordinatewise).  It needs only integer dot products, gcds and set
operations; no determinant and no rational arithmetic enters it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import FrozenSet, List, Sequence, Tuple

from . import _linalg
from .mpoly import Monomial, Polynomial

IntVec = Tuple[int, ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _unit(n: int, i: int) -> IntVec:
    e = [0] * n
    e[i] = 1
    return tuple(e)


def _affine_dim(points: Sequence[IntVec], rays: Sequence[IntVec]) -> int:
    """Dimension of conv(points) + cone(rays); points is nonempty."""
    base = points[0]
    rows = [tuple(p - q for p, q in zip(pt, base)) for pt in points[1:]]
    rows.extend(rays)
    if not rows:
        return 0
    return _linalg.rank(rows)


@dataclass(frozen=True)
class Facet:
    """A codimension-1 face: primitive normal, weight, and meet set."""

    normal: IntVec
    m: int
    meet_support: FrozenSet[Monomial]

    @cached_property
    def rays(self) -> FrozenSet[int]:
        """Indices of coordinate rays lying in the facet."""
        return frozenset(i for i, a in enumerate(self.normal) if a == 0)


@dataclass(frozen=True)
class Face:
    """A face of the polyhedron, keyed by support points and rays.

    The improper face (the whole polyhedron) has containing_facets = ()
    and carries the full support.
    """

    meet_support: FrozenSet[Monomial]
    rays: FrozenSet[int]
    containing_facets: Tuple[int, ...]
    dim: int


class NewtonPolyhedron:
    """Facets and faces of conv(supp(f) + orthant).

    ``faces`` is built from the facets when first read; a face's
    dimension is n minus the rank of the normals of its facets.
    """

    def __init__(self, variables: Tuple[str, ...], support: FrozenSet[Monomial],
                 facets: List[Facet]):
        self.variables = variables
        self.support = support
        self.facets = facets
        self.n = len(variables)

    @cached_property
    def faces(self) -> List[Face]:
        return _face_lattice(self.support, self.facets, self.n)

    # -- faces ----------------------------------------------------------

    def face_polynomial(self, f: Polynomial, face: Face) -> Polynomial:
        """The subsum of f supported on the face's meet set."""
        if f.support() != self.support or f.variables != self.variables:
            raise ValueError("polynomial does not match this polyhedron")
        return Polynomial(
            f.variables,
            {e: c for e, c in f.terms.items() if e in face.meet_support},
        )

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        support_order = sorted(self.support)
        return {
            "facets": [
                {"normal": list(ft.normal), "m": ft.m} for ft in self.facets
            ],
            "faces": [
                {
                    "support": [list(w) for w in sorted(f.meet_support)],
                    "facets": list(f.containing_facets),
                    "dim": f.dim,
                }
                for f in self.faces
            ],
            "support": [list(w) for w in support_order],
        }


_MAX_VARS = 4
_MAX_SUPPORT = 30


def _minimal_points(support: Sequence[Monomial]) -> List[Monomial]:
    """Support points with no other support point below them coordinatewise."""
    return [
        w for w in support
        if not any(v != w and all(x <= y for x, y in zip(v, w)) for v in support)
    ]


def _facets(support: List[Monomial], n: int) -> List[Facet]:
    """The facets of conv(support) + R_{>=0}^n, unsorted.

    Double description on C = {(a, t) : a_i >= 0, a.w - t >= 0 for every
    minimal point w}.  A ray is kept with its zero set, a bit mask over
    the constraints: bit i for a_i >= 0, bit n + k for the k-th minimal
    point.  Each step adds one point constraint h, keeps the rays with
    h.r >= 0, and joins each adjacent pair on opposite sides of h.  Two
    extreme rays are adjacent exactly when no third one vanishes on every
    constraint that both vanish on.  Adjacent rays share at least n - 1
    zero constraints, so counting them first only saves time.  Every
    returned facet is checked against the full support.
    """
    minimal = _minimal_points(support)
    w0 = minimal[0]
    axes = (1 << n) - 1
    trivial = (0,) * n + (-1,)  # the inequality 0 >= -1
    rays = [(_unit(n, i) + (w0[i],), axes ^ (1 << i) | 1 << n) for i in range(n)]
    rays.append((trivial, axes))
    for k, w in enumerate(minimal[1:], 1):
        bit = 1 << (n + k)
        h = w + (-1,)
        sides = [(_dot(h, r), r, z) for r, z in rays]
        kept = [(r, z | bit if s == 0 else z) for s, r, z in sides if s >= 0]
        for i, (sp, rp, zp) in enumerate(sides):
            if sp <= 0:
                continue
            for j, (sn, rn, zn) in enumerate(sides):
                if sn >= 0:
                    continue
                z = zp & zn
                if z.bit_count() < n - 1 or any(
                    z & z3 == z for l, (_, _, z3) in enumerate(sides) if l != i and l != j
                ):
                    continue
                v = tuple(sp * y - sn * x for x, y in zip(rp, rn))
                g = gcd(*v)
                kept.append((tuple(x // g for x in v), z | bit))
        rays = kept

    units = [_unit(n, i) for i in range(n)]
    facets = []
    for v, _ in rays:
        if v == trivial:
            continue
        a, t = v[:n], v[n]
        m = min(_dot(a, w) for w in support)
        meet = frozenset(w for w in support if _dot(a, w) == m)
        ray_set = [units[i] for i, x in enumerate(a) if x == 0]
        if min(a) < 0 or t != m or _affine_dim(sorted(meet), ray_set) != n - 1:
            raise AssertionError(
                f"double description returned the ray {v}, which is no facet; "
                "this indicates a facet enumeration bug"
            )
        facets.append(Facet(a, m, meet))
    return facets


def build_polyhedron(f: Polynomial) -> NewtonPolyhedron:
    """Construct the Newton polyhedron of f.

    f must be nonzero, vanish at the origin, and stay within the desk
    scale bounds (<= 4 variables, <= 30 support monomials).  The facets
    are the extreme rays (a, m) of the cone C of valid inequalities
    a.x >= t of the polyhedron, other than the trivial (0, -1): C is
    {(a, t) : a >= 0, a.w - t >= 0 for every minimal support point w}.
    The polyhedron is full-dimensional, so C is pointed and its extreme
    rays are exactly the facet inequalities and (0, -1); a facet
    hyperplane passes through lattice points, so its primitive ray
    carries the primitive normal.  Minimal points suffice because the
    polyhedron equals conv(minimal points) + R_{>=0}^n: every other
    support point lies above a minimal one.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no Newton polyhedron")
    if f.constant_term() != 0:
        raise ValueError(f"polynomial {f} does not vanish at 0 (it has a constant term)")
    n = f.nvars
    if n > _MAX_VARS:
        raise ValueError(f"too many variables ({n} > {_MAX_VARS})")
    support = sorted(f.support())
    if len(support) > _MAX_SUPPORT:
        raise ValueError(f"support too large ({len(support)} > {_MAX_SUPPORT})")

    facets = _facets(support, n)
    facets.sort(key=lambda ft: ft.normal)
    return NewtonPolyhedron(f.variables, frozenset(support), facets)


def _face_lattice(support: FrozenSet[Monomial], facets: List[Facet], n: int) -> List[Face]:
    """All faces as intersections of facets, plus the improper face.

    A face lies in the facets whose intersection with it is the face
    itself.  The polyhedron is full-dimensional, so the face's dimension
    is n minus the rank of their normals (Schrijver, *Theory of Linear
    and Integer Programming*, 8.3).
    """
    # key -> containing facets, in the order keys are first pushed
    queue = [(ft.meet_support, ft.rays) for ft in facets]
    items = dict.fromkeys(queue, ())
    while queue:
        key = queue.pop()
        meet, rays = key
        containing = []
        for i, ft in enumerate(facets):
            m2 = meet & ft.meet_support
            if not m2:
                continue
            k2 = (m2, rays & ft.rays)
            if k2 == key:
                containing.append(i)
            elif k2 not in items:
                items[k2] = ()
                queue.append(k2)
        items[key] = tuple(containing)

    faces = [
        Face(meet, rays, containing, 0 if len(meet) == 1 and not rays  # a vertex
             else n - _linalg.rank([facets[i].normal for i in containing]))
        for (meet, rays), containing in items.items()
    ]
    # the polyhedron itself: full support, all rays, no facet constraints
    faces.append(Face(support, frozenset(range(n)), (), n))
    faces.sort(key=lambda f: (f.dim, sorted(f.meet_support)))
    return faces
