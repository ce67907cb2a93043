"""Newton non-criticality of a polynomial.

f is Newton non-critical when, for every face tau of its Newton
polyhedron (the improper face included), the partials of the face
polynomial f_tau have no common zero with all coordinates nonzero.
The reading here is geometric: zeros are sought over an algebraically
closed field of characteristic 0.

Two modes:

* ``exact_small`` (n <= 2): a complete decision.  The common-zero
  locus off the coordinate hyperplanes is empty iff the ideal generated
  by the partials together with x_1 ... x_n * t - 1 is trivial, which a
  Groebner basis over Q detects exactly.  This subsumes the
  resultant/gcd elimination one would do by hand and is immune to its
  degenerate branches (shared components, leading-coefficient drops,
  zeros pairing off across the two eliminations).  A monomial face
  needs no basis: one of its partials is a monomial, a unit on the
  torus.
* ``finite_field_heuristic`` (any n): scan the torus (F_l^x)^n for a
  list of auxiliary primes l.  A common zero whose Hessian is
  invertible mod l lifts to characteristic zero (Hensel), certifying a
  critical verdict; finding no zeros for any l supports non-critical,
  flagged as heuristic; anything else is inconclusive.
* Witness (exact mode, critical faces).  First a point with small
  integer coordinates that kills the partials exactly, as ints.  Else
  the first zero of the cross-check's scans (primes in order, at most
  64 zeros each) at which the Jacobian of the nonzero partials has full
  row rank mod l, as strings "r mod l": by Hensel's lemma it lifts to a
  common zero in Z_l^n whose coordinates are units, a torus zero over
  Q_l, which has characteristic 0.  Else None.  A quasi-homogeneous
  f_tau whose partials are all nonzero never gets such a witness, since
  its Jacobian is the Hessian, singular at every critical point by
  Euler's relation (below); nor do partials with a common factor, such
  as those of x^2 (3y + 1)^2, along whose zero curve the Jacobian drops
  rank.

The report records the per-face finding in both worlds when available
and flags auxiliary primes that disagree with the characteristic-0
verdict.

Torus slices.  When supp(f_tau) lies in an affine hyperplane a.w = d
(every proper face does), the common torus zeros of its partials are
stable under x -> lam^a . x, because d_i f_tau(lam^a . x) =
lam^(d - a_i) d_i f_tau(x).  If some a_j is prime to l - 1, every orbit
meets x_j = 1, so that slice of (l - 1)^(n-1) points decides whether a
zero exists.  Existence is all the exact mode's check of its verdict
uses, and all the heuristic mode can learn from such a face: Euler's
relation gives H (a * x) = 0 at a critical point, and a * x != 0 mod l
for a primitive, so the Hessian never certifies it.  Other faces (in
practice the improper face of a general f) scan the whole torus.  The
grid budget counts the points scanned, so a sliced face in 4 variables
fits it at the default primes (10^6 points, not 10^8); the faces of
homogeneous inputs slice in practice, and those no longer hit it.  A
scan over the budget raises ValueError in either mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ._linalg import normal, rank, rank_mod
from .mpoly import Polynomial, eval_mod
from .newton import Face, NewtonPolyhedron, build_polyhedron
from .numeric import _is_prime

DEFAULT_AUX_PRIMES = (101, 103, 107)
_GRID_BUDGET = 4 * 10**6


@dataclass(frozen=True)
class FaceFinding:
    """Outcome for one face polynomial.

    ``witness`` is a torus zero of the face partials, or None:
    * heuristic mode, critical: a zero mod l (``field`` "F_l") with an
      invertible Hessian, as ints;
    * exact mode, critical: a small integer zero, as ints; else a zero
      mod l at which the Jacobian of the nonzero partials has full row
      rank, as strings "r mod l" (Hensel lifts it to a torus zero in
      Z_l^n, so ``field`` stays "char0"); else None.  The mod-l form
      never certifies a quasi-homogeneous face with no zero partial
      (Euler's relation makes its Hessian singular at every zero) nor
      partials with a common factor (the Jacobian drops rank along it).
    """

    face_support: Tuple[Tuple[int, ...], ...]
    verdict: str  # "non_critical" | "critical" | "inconclusive"
    field: str  # "char0" or "F_<l>"
    certificate: str
    witness: Optional[Tuple] = None
    disagreeing_primes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class NonCritReport:
    verdict: str  # "non_critical" | "critical" | "inconclusive"
    mode: str
    heuristic: bool
    findings: Tuple[FaceFinding, ...]
    aux_primes: Tuple[int, ...] = ()

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "heuristic": self.heuristic,
            "aux_primes": list(self.aux_primes),
            "faces": [
                {
                    "support": [list(w) for w in fnd.face_support],
                    "verdict": fnd.verdict,
                    "field": fnd.field,
                    "certificate": fnd.certificate,
                    "witness": list(fnd.witness) if fnd.witness is not None else None,
                    "disagreeing_primes": list(fnd.disagreeing_primes),
                }
                for fnd in self.findings
            ],
        }


def _to_sympy(f: Polynomial, symbols):
    import sympy

    expr = sympy.Integer(0)
    for exps, coeff in f.terms.items():
        term = sympy.Integer(coeff)
        for s, e in zip(symbols, exps):
            if e:
                term *= s**e
        expr += term
    return expr


def _torus_ideal_trivial(partials: Sequence[Polynomial], variables) -> bool:
    """True iff the partials have no common zero with all coords nonzero
    over the algebraic closure of Q (weak Nullstellensatz via saturation)."""
    import sympy

    symbols = sympy.symbols(list(variables) + ["_t"])
    xs, t = symbols[:-1], symbols[-1]
    system = [_to_sympy(g, xs) for g in partials if not g.is_zero()]
    if not system:
        raise AssertionError("face polynomial with identically zero gradient")
    sat = sympy.prod(xs) * t - 1
    gb = sympy.groebner(system + [sat], *xs, t, order="grevlex", domain=sympy.QQ)
    return list(gb.exprs) == [sympy.Integer(1)]


def _integer_zero(partials: Sequence[Polynomial]) -> Optional[Tuple[int, ...]]:
    """A common zero of the partials with small nonzero integer coordinates."""
    nonzero = [g for g in partials if not g.is_zero()]
    for point in itertools.product([1, -1, 2, -2, 3, -3, 5, -5], repeat=len(partials)):
        if all(g.evaluate(point) == 0 for g in nonzero):
            return point
    return None


def _hensel_zero(partials: Sequence[Polynomial], scans) -> Optional[Tuple[str, ...]]:
    """The first of at most 64 torus zeros per (ell, zeros) scan at which
    the Jacobian of the nonzero partials has full row rank mod ell: Hensel
    lifts it to a common zero in Z_ell^n, with unit coordinates."""
    jacobian = [g.partials() for g in partials if not g.is_zero()]
    for ell, zeros in scans:
        for point in zeros[:64]:
            if _full_rank_mod(jacobian, point, ell):
                return tuple(f"{x} mod {ell}" for x in point)
    return None


def _weights(f_tau: Polynomial) -> Tuple[Tuple[int, ...], ...]:
    """Primitive weights a != 0 with a.w the same for every w in
    supp(f_tau); empty when f_tau is not quasi-homogeneous.

    A basis of the support differences, padded with each choice of
    coordinate unit vectors to n - 1 independent rows, has such an a as
    its cross product.
    """
    n = f_tau.nvars
    support = sorted(f_tau.terms)
    rows: List[Tuple[int, ...]] = []
    for pt in support[1:]:
        v = tuple(w - b for w, b in zip(pt, support[0]))
        if rank(rows + [v]) > len(rows):
            rows.append(v)
            if len(rows) == n:
                return ()
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = {normal(rows + list(pad), n) for pad in itertools.combinations(units, n - 1 - len(rows))}
    found.discard(None)
    return tuple(sorted(found))


def _slice_axis(weights: Sequence[Tuple[int, ...]], ell: int) -> Optional[int]:
    """An axis j whose slice x_j = 1 meets every orbit of the weights'
    torus actions, or None: their j-th coordinates lam^(a_j) fill F_ell^x
    when gcd(ell - 1, a_j over all the weights) = 1."""
    if not weights:
        return None
    return next(
        (j for j in range(len(weights[0])) if gcd(ell - 1, *(a[j] for a in weights)) == 1),
        None,
    )


def _torus_zeros_mod(partials: Sequence[Polynomial], ell: int, nvars: int, axis: Optional[int] = None):
    """Common zeros of the partials on (F_ell^x)^n, as tuples in
    lexicographic order; on the slice x_axis = 1 when an axis is given."""
    import numpy as np

    free = nvars - (axis is not None)
    size = (ell - 1) ** free
    if size > _GRID_BUDGET:
        raise ValueError(
            f"torus grid of {free} coordinates in F_{ell}^x has {size} points; "
            "supply smaller auxiliary primes"
        )
    cols = np.ones((nvars, size), dtype=np.int64)
    cols[[j for j in range(nvars) if j != axis]] = (
        np.indices((ell - 1,) * free, dtype=np.int64).reshape(free, size) + 1
    )
    pts = cols.T
    for g in partials:
        if g.is_zero():
            continue
        pts = pts[eval_mod(g, pts, ell) == 0]
        if not len(pts):
            return []
    return [tuple(int(x) for x in row) for row in pts]


def _full_rank_mod(jacobian, point, ell: int) -> bool:
    """Whether the matrix of polynomials has full row rank mod ell at point."""
    return rank_mod([[h.evaluate(point) for h in row] for row in jacobian], ell) == len(jacobian)


def check_noncritical(
    f: Polynomial,
    mode: str = "exact_small",
    aux_primes: Sequence[int] = DEFAULT_AUX_PRIMES,
    polyhedron: Optional[NewtonPolyhedron] = None,
) -> NonCritReport:
    """Decide (exactly or heuristically) whether f is Newton non-critical.

    ``exact_small`` is a complete characteristic-0 decision, limited to
    n <= 2; it additionally scans the auxiliary primes, flags those
    whose torus zeros disagree with the exact verdict, and draws the
    witnesses of critical faces from those zeros.
    ``finite_field_heuristic`` works in any dimension.
    """
    if mode not in ("exact_small", "finite_field_heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact_small" and f.nvars > 2:
        raise ValueError("exact_small mode is limited to polynomials in <= 2 variables")
    for ell in aux_primes:
        # the torus scan multiplies residues in int64
        if not _is_prime(ell) or ell * ell >= 2**63:
            raise ValueError(f"auxiliary prime {ell} is not a prime with l^2 < 2^63")
    poly = polyhedron if polyhedron is not None else build_polyhedron(f)
    findings: List[FaceFinding] = []
    # a finding depends only on the meet support (f_tau and the key come
    # from it), so faces that share one are decided once
    decided: Dict[FrozenSet, FaceFinding] = {}
    overall = "non_critical"
    for face in poly.faces:
        finding = decided.get(face.meet_support)
        if finding is None:
            f_tau = poly.face_polynomial(f, face)
            partials = f_tau.partials()
            if mode == "exact_small":
                finding = _check_face_exact(f_tau, partials, face, aux_primes)
            else:
                finding = _check_face_heuristic(f_tau, partials, face, aux_primes)
            decided[face.meet_support] = finding
        findings.append(finding)
        if finding.verdict == "critical":
            overall = "critical"
        elif finding.verdict == "inconclusive" and overall != "critical":
            overall = "inconclusive"
    return NonCritReport(
        verdict=overall,
        mode=mode,
        heuristic=(mode == "finite_field_heuristic"),
        findings=tuple(findings),
        aux_primes=tuple(aux_primes),
    )


def _face_key(face: Face):
    return tuple(sorted(face.meet_support))


def _check_face_exact(f_tau, partials, face, aux_primes) -> FaceFinding:
    weights = _weights(f_tau)
    scans = [
        (ell, _torus_zeros_mod(partials, ell, f_tau.nvars, _slice_axis(weights, ell)))
        for ell in aux_primes
    ]
    trivial = len(f_tau.terms) == 1 or _torus_ideal_trivial(partials, f_tau.variables)
    # a prime disagrees when it has torus zeros on a trivial face or none on a critical one
    disagree = tuple(ell for ell, zeros in scans if bool(zeros) == trivial)
    if trivial:
        return FaceFinding(
            face_support=_face_key(face),
            verdict="non_critical",
            field="char0",
            certificate="saturated gradient ideal is trivial",
            disagreeing_primes=disagree,
        )
    return FaceFinding(
        face_support=_face_key(face),
        verdict="critical",
        field="char0",
        certificate="saturated gradient ideal is nontrivial",
        witness=_integer_zero(partials) or _hensel_zero(partials, scans),
        disagreeing_primes=disagree,
    )


def _check_face_heuristic(f_tau, partials, face, aux_primes) -> FaceFinding:
    weights = _weights(f_tau)
    if weights:
        # Euler: the Hessian kills a * x at every critical point, so no
        # zero is ever certified and only their existence matters
        found_any = any(
            _torus_zeros_mod(partials, ell, f_tau.nvars, _slice_axis(weights, ell))
            for ell in aux_primes
        )
    else:
        found_any = False
        hessian = [g.partials() for g in partials]
        for ell in aux_primes:
            zeros = _torus_zeros_mod(partials, ell, f_tau.nvars)
            if not zeros:
                continue
            found_any = True
            for point in zeros[:64]:
                if _full_rank_mod(hessian, point, ell):
                    return FaceFinding(
                        face_support=_face_key(face),
                        verdict="critical",
                        field=f"F_{ell}",
                        certificate="torus zero with invertible Hessian lifts (Hensel)",
                        witness=point,
                    )
    if found_any:
        return FaceFinding(
            face_support=_face_key(face),
            verdict="inconclusive",
            field=f"F_{aux_primes[0]}" if aux_primes else "none",
            certificate="torus zeros found but none certified liftable",
        )
    return FaceFinding(
        face_support=_face_key(face),
        verdict="non_critical",
        field=",".join(f"F_{ell}" for ell in aux_primes),
        certificate="no torus zeros modulo any auxiliary prime (heuristic)",
    )
