"""Newton non-criticality of a polynomial.

f is Newton non-critical when, for every face tau of its Newton
polyhedron (the improper face included), the partials of the face
polynomial f_tau have no common zero with all coordinates nonzero.
The reading here is geometric: zeros are sought over an algebraically
closed field of characteristic 0.

One pipeline: ``check_noncritical`` builds f_tau, its nonzero partials
and its hull (below) once per distinct face, and one function per mode
decides the face from them.  The number of variables n picks the mode:
the exact one wherever it applies, else the heuristic.  Both scan the
auxiliary primes ``AUX_PRIMES``:

* ``exact_small`` (n <= ``EXACT_MAX_NVARS``, which is 2): a complete
  decision.  The common-zero locus off the coordinate hyperplanes is
  empty iff the ideal generated by the partials together with
  x_1 ... x_n * t - 1 is (1) over Q.  The first of five rules that
  applies decides: (1) a nonzero partial with one term is a unit on the
  torus: non-critical; (2) a single nonzero partial has two terms or
  more, hence torus zeros: critical (this covers n = 1); (3) support
  on a line: see ``_line_critical``; (4) a witness (below) is a torus
  zero in characteristic 0: critical; (5) else a Groebner basis over Z,
  with a budget of reduction steps (``_groebner_trivial``).  Rules 1-4
  decide every face in practice: the improper face of a general f has
  torus critical points, and they carry witnesses.
* ``finite_field_heuristic`` (n > ``EXACT_MAX_NVARS``): scan the torus
  (F_l^x)^n, on each face's hull (below), for the auxiliary primes l,
  one prime at a time while the face is undecided.  A zero that passes
  the liftability test (below) certifies a critical verdict; finding no
  zeros for any l supports non-critical, flagged as heuristic; anything
  else is inconclusive, in the field of the first l with zeros.  Only a
  face with d = n is tested: none of its partials is zero, so the
  Jacobian below is the Hessian, and when d < n Euler's relation
  (below) makes the Hessian singular at every zero.
* Liftability, the one test of both modes (``_hensel_zero``): the first
  of at most 64 zeros per scan, primes in order, at which the Jacobian
  of the nonzero partials has full row rank mod l.  By Hensel's lemma
  it lifts to a common zero in Z_l^n whose coordinates are units, a
  torus zero over Q_l, which has characteristic 0.
* Witness (exact mode, critical faces).  First a point with small
  integer coordinates that kills the partials exactly, as ints.  Else
  the zero of the cross-check's scans that passes the liftability test,
  as strings "r mod l".  Else None.  A quasi-homogeneous f_tau whose
  partials are all nonzero never gets such a witness, since its
  Jacobian is the Hessian, singular at every critical point by Euler's
  relation (below); nor do partials with a common factor, such as
  those of x^2 (3y + 1)^2, along whose zero curve the Jacobian drops
  rank.

The report records the per-face finding in both worlds when available
and flags auxiliary primes that disagree with the characteristic-0
verdict.

Hulls.  Each face is scanned on the lattice of its own support, by
the unimodular monomial change behind Kouchnirenko's theorem.
``_hull`` reduces the support differences w - w0 with extended-gcd
column steps of determinant 1 to a unimodular V and the affine
dimension d (V = I when d = n); under x_i = y^(row i of V),
f_tau = y^v0 h(y_1 .. y_d).  V^T carries the toric gradient
(x_i d_i f_tau) to y^v0 (v0_j h + y_j d_j h), whose entries past d are
v0_j h.  V is invertible over every field, so the partials have a
torus zero mod l iff that system has one on (F_l^x)^d: (l - 1)^d
points decide, and zeros map back with y_j = 1 for j > d.  When d < n,
Euler's relation gives H (a * x) = 0 at a critical point for a
primitive weight a of the face, and a * x != 0 mod l, so the Hessian
never certifies it.  The system is linear in the M monomials of h,
which are units on the torus: its (d + 1) x M coefficient matrix is
built once per face, and when it has rank M mod l, no torus point
solves it and no grid is scanned (for d < n, mostly simplex faces,
M = d + 1); else ``eval_mod`` scans the grid on its d axes.  Only a
scanned grid is refused: ``residue_axes`` raises ValueError, in either
mode, when its (l - 1)^d points are over the residue limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ._linalg import rank, rank_mod
from .mpoly import Polynomial, eval_mod, residue_axes
from .newton import NewtonPolyhedron, build_polyhedron

AUX_PRIMES = (101, 103, 107)  # l^2 < 2^63: the torus scan multiplies residues in int64
EXACT_MAX_NVARS = 2  # exact_small decides up to this many variables
_GROEBNER_STEPS = 10**4


@dataclass(frozen=True)
class FaceFinding:
    """Outcome for one face polynomial.

    An exact verdict comes from the first of the module docstring's five
    rules that applies.

    ``witness`` is a torus zero of the face partials, or None:
    * heuristic mode, critical: a zero mod l (``field`` "F_l") that
      passes the liftability test (the Hessian is the Jacobian there),
      as ints;
    * exact mode, critical: a small integer zero, as ints; else a zero
      mod l that passes the liftability test, as strings "r mod l"
      (Hensel lifts it to a torus zero in Z_l^n, so ``field`` stays
      "char0"); else None.  The mod-l form
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
    aux_primes: Tuple[int, ...]

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


def _grevlex(m: Tuple[int, ...]):
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _times(p: Dict[Tuple[int, ...], int], m: Tuple[int, ...], lm: Tuple[int, ...]):
    """p times the monomial m / lm."""
    return {tuple(x + a - b for x, a, b in zip(e, m, lm)): v for e, v in p.items()}


def _combine(a: int, p: Dict, b: int, q: Dict) -> Dict[Tuple[int, ...], int]:
    """The primitive part of a p + b q, without zero terms."""
    out = {e: a * v for e, v in p.items()}
    for e, v in q.items():
        out[e] = out.get(e, 0) + b * v
    c = gcd(*out.values())
    return {e: v // c for e, v in out.items() if v}


def _groebner_trivial(partials: Sequence[Polynomial], support: Tuple[Tuple[int, ...], ...]) -> bool:
    """True iff the partials, all nonzero, and x_1 ... x_n t - 1 generate (1)
    over Q, i.e. the partials have no common torus zero over the algebraic
    closure of Q (weak Nullstellensatz via saturation).

    Buchberger's algorithm over Z in grevlex order (Cox, Little & O'Shea,
    ch. 2): fraction-free reductions to primitive parts, the pair with the
    least lcm first, and the product and chain criteria in the
    Gebauer-Moeller update.  It returns as soon as a nonzero constant
    appears, and raises ValueError naming the face once it has taken
    _GROEBNER_STEPS reduction steps.
    """
    n = partials[0].nvars
    polys: List[Dict[Tuple[int, ...], int]] = []
    lms: List[Tuple[int, ...]] = []
    active: List[int] = []
    pairs: List[Tuple[int, int]] = []
    steps = 0

    def reduce(p):
        nonlocal steps
        done = None  # the terms from this grevlex key up are irreducible
        while True:
            todo = [e for e in p if done is None or _grevlex(e) < done]
            if not todo:
                return p
            m = max(todo, key=_grevlex)
            i = next((i for i in active if _divides(lms[i], m)), None)
            if i is None:
                done = _grevlex(m)
                continue
            if steps == _GROEBNER_STEPS:
                raise ValueError(
                    f"Groebner basis for the face {[list(w) for w in support]} "
                    f"exceeded {_GROEBNER_STEPS} reduction steps"
                )
            steps += 1
            lc, c = polys[i][lms[i]], p[m]
            k = gcd(lc, c)
            p = _combine(lc // k, p, -(c // k), _times(polys[i], m, lms[i]))

    def update(p) -> bool:
        # Gebauer-Moeller: a new pair stays unless another new pair's lcm
        # divides its lcm (chain); then those with coprime leading
        # monomials go (product); an old pair goes when the new leading
        # monomial divides its lcm and differs from it on both sides (chain)
        h = len(polys)
        polys.append(p)
        lm = max(p, key=_grevlex)
        lms.append(lm)
        if not any(lm):
            return True  # a nonzero constant
        new = [(g, _lcm(lms[g], lm)) for g in active]
        kept = []
        for k, (g, L) in enumerate(new):
            coprime = L == tuple(x + y for x, y in zip(lms[g], lm))
            others = [L2 for _, L2 in new[k + 1:]] + [L2 for _, L2, _ in kept]
            if coprime or not any(_divides(L2, L) for L2 in others):
                kept.append((g, L, coprime))
        pairs[:] = [
            (i, j) for i, j in pairs
            if not _divides(lm, _lcm(lms[i], lms[j]))
            or _lcm(lms[i], lm) == _lcm(lms[i], lms[j])
            or _lcm(lms[j], lm) == _lcm(lms[i], lms[j])
        ]
        pairs.extend((g, h) for g, _, coprime in kept if not coprime)
        active[:] = [g for g in active if not _divides(lm, lms[g])] + [h]
        return False

    gens = [{e + (0,): c for e, c in g.terms.items()} for g in partials]
    gens.append({(1,) * (n + 1): 1, (0,) * (n + 1): -1})
    if any(update(p) for p in gens):
        return True
    while pairs:
        i, j = pair = min(pairs, key=lambda pr: _grevlex(_lcm(lms[pr[0]], lms[pr[1]])))
        pairs.remove(pair)
        L = _lcm(lms[i], lms[j])
        a, b = polys[i][lms[i]], polys[j][lms[j]]
        k = gcd(a, b)
        r = reduce(_combine(b // k, _times(polys[i], L, lms[i]), -(a // k), _times(polys[j], L, lms[j])))
        if r and update(r):
            return True
    return False


class Hull(NamedTuple):
    """f_tau = y^v0 h(y_1 .. y_d) under x_i = y^(row i of V); d = h.nvars."""

    V: Tuple[Tuple[int, ...], ...]
    v0: Tuple[int, ...]
    h: Polynomial


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b and g >= 0."""
    s, t, s1, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s, s1, t, t1 = b, a - q * b, s1, s - q * s1, t1, t - q * t1
    return (a, s, t) if a >= 0 else (-a, -s, -t)


def _hull(f_tau: Polynomial) -> Hull:
    """The monomial change onto the lattice of supp(f_tau) (module docstring).

    Each support difference w - w0, in the current columns of V, is
    cleared past the pivot column d by steps that replace columns (d, j)
    with s col_d + t col_j and (u_d col_j - u_j col_d) / g, where g =
    s u_d + t u_j = gcd(u_d, u_j): determinant 1.  Differences already
    reduced keep zeros in the columns from d on, which the steps only mix.
    """
    n = f_tau.nvars
    support = sorted(f_tau.terms)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of V
    d = 0
    for w in support[1:]:
        u = [sum((a - b) * c for a, b, c in zip(w, support[0], col)) for col in cols]
        for j in range(d + 1, n):
            if u[j]:
                g, s, t = _xgcd(u[d], u[j])
                p, q = u[d] // g, u[j] // g
                cols[d], cols[j] = (
                    [s * x + t * y for x, y in zip(cols[d], cols[j])],
                    [p * y - q * x for x, y in zip(cols[d], cols[j])],
                )
                u[d] = g
        if d < n and u[d]:
            d += 1
    if d == n:
        cols = [[int(i == j) for i in range(n)] for j in range(n)]
    exps = {w: [sum(a * c for a, c in zip(w, col)) for col in cols] for w in support}
    v0 = tuple(min(e[j] for e in exps.values()) for j in range(d)) + tuple(exps[support[0]][d:])
    h = {tuple(x - m for x, m in zip(e, v0[:d])): f_tau.terms[w] for w, e in exps.items()}
    return Hull(tuple(zip(*cols)), v0, Polynomial(f_tau.variables[:d], h))


def _line_critical(v0: Tuple[int, ...], h: Polynomial) -> bool:
    """Whether f_tau = y^v0 h(y_1), with support on a line (d = 1) and
    h(0) != 0, has a critical point on the torus.

    Its toric gradient is y^v0 (v0_1 h + y h', v0_2 h, ..., v0_n h).  If
    some v0_j with j > 1 is nonzero, a critical point is a common root of
    h and y h', a multiple root of h: the resultant of h and h' is 0.
    Else it is a nonzero root of sum (v0_1 + k) c_k y^k, which has one
    iff it has two terms.
    """
    coeffs = [0] * (h.total_degree() + 1)
    for (k,), c in h.terms.items():
        coeffs[k] = c
    if any(v0[1:]):
        # a repeated root: the resultant of h and h', of degrees m and m - 1, is 0
        m, dh = len(coeffs) - 1, [k * c for k, c in enumerate(coeffs)][1:]
        sylvester = [[0] * i + coeffs[::-1] + [0] * (m - 2 - i) for i in range(m - 1)]
        sylvester += [[0] * i + dh[::-1] + [0] * (m - 1 - i) for i in range(m)]
        return rank(sylvester) < len(sylvester)
    return sum((v0[0] + k) * c != 0 for k, c in enumerate(coeffs)) >= 2


def _integer_zero(nonzero: Sequence[Polynomial], n: int) -> Optional[Tuple[int, ...]]:
    """A common zero of the nonzero partials: n small nonzero integers."""
    for point in itertools.product([1, -1, 2, -2, 3, -3, 5, -5], repeat=n):
        if all(g.evaluate(point) == 0 for g in nonzero):
            return point
    return None


def _hensel_zero(nonzero: Sequence[Polynomial], scans) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(ell, point): the first of at most 64 torus zeros per (ell, zeros)
    scan at which the Jacobian of the nonzero partials has full row rank
    mod ell, so that Hensel lifts it to a common zero in Z_ell^n with unit
    coordinates; else None.  Scans are drawn one at a time."""
    jacobian = [g.partials() for g in nonzero]
    for ell, zeros in scans:
        for point in zeros[:64]:
            if rank_mod([[h.evaluate(point) for h in row] for row in jacobian], ell) == len(jacobian):
                return ell, point
    return None


def _hull_system(hull: Hull) -> List[List[int]]:
    """The (d + 1) x M coefficient rows of the hull's system (module
    docstring) in the M monomials of h: v0_j h + y_j d_j h for j < d,
    then gcd(v0_(j>=d)) h."""
    _, v0, h = hull
    d = h.nvars
    rows = [[c * (v0[j] + e[j]) for e, c in h.terms.items()] for j in range(d)]
    rows.append([gcd(*v0[d:]) * c for c in h.terms.values()])
    return rows


def _torus_scans(hull: Hull, primes: Sequence[int]):
    """(ell, zeros) for each prime in turn, computed as it is drawn: the
    common zeros of the partials of f_tau on (F_ell^x)^n, one in each
    orbit of the coordinates y_j with j > d, which are the zeros of the
    hull's system on (F_ell^x)^d, in lexicographic order of y, mapped back
    to x with y_j = 1 for j > d.  The system is built once for all primes.
    The rank test (module docstring) rules out zeros first; else
    ``eval_mod`` evaluates the nonzero terms of the system's first nonzero
    row on the axes of ``residue_axes``, and those of the others at its
    zeros.
    """
    import numpy as np

    V, v0, h = hull
    d = h.nvars
    rows = _hull_system(hull)
    system = None
    for ell in primes:
        if rank_mod(rows, ell) == len(h.terms):
            yield ell, []
            continue
        if system is None:
            system = [[(e, c) for e, c in zip(h.terms, row) if c] for row in rows if any(row)]
        pts = np.argwhere(eval_mod(system[0], residue_axes(ell, d, 1), ell) == 0) + 1
        for g in system[1:]:
            pts = pts[eval_mod(g, pts.T, ell) == 0]
        # x_i = prod_j y_j^V_ij mod ell, the y_j units: pow inverts for V_ij < 0
        yield ell, [tuple(prod(pow(y, e, ell) for y, e in zip(pt, row)) % ell for row in V)
                    for pt in pts.tolist()]


def check_noncritical(f: Polynomial, polyhedron: Optional[NewtonPolyhedron] = None) -> NonCritReport:
    """Decide (exactly or heuristically) whether f is Newton non-critical.

    The number of variables picks the mode.  ``exact_small``, for
    n <= EXACT_MAX_NVARS, is a complete characteristic-0 decision; it
    additionally scans the auxiliary primes, flags those whose torus
    zeros disagree with the exact verdict, and draws the witnesses of
    critical faces from those zeros.  ``finite_field_heuristic`` takes
    every larger n.  f is critical if a face is, else inconclusive if a
    face is, else non-critical.
    """
    mode = "exact_small" if f.nvars <= EXACT_MAX_NVARS else "finite_field_heuristic"
    check = _check_face_exact if mode == "exact_small" else _check_face_heuristic
    poly = polyhedron if polyhedron is not None else build_polyhedron(f)
    # a finding depends only on the meet support (f_tau comes from it), so
    # each distinct one is prepared and decided once
    decided: Dict[FrozenSet, FaceFinding] = {}
    for face in poly.faces:
        if face.meet_support not in decided:
            f_tau = poly.face_polynomial(f, face)
            nonzero = [g for g in f_tau.partials() if not g.is_zero()]
            decided[face.meet_support] = check(_hull(f_tau), nonzero, tuple(sorted(face.meet_support)))
    findings = tuple(decided[face.meet_support] for face in poly.faces)
    verdicts = {finding.verdict for finding in findings}
    overall = next((v for v in ("critical", "inconclusive") if v in verdicts), "non_critical")
    return NonCritReport(overall, mode, mode != "exact_small", findings, AUX_PRIMES)


def _check_face_exact(hull: Hull, nonzero: Sequence[Polynomial], support) -> FaceFinding:
    """The first of the module docstring's five rules that applies decides
    whether the partials have no common torus zero in characteristic 0."""
    scans = list(_torus_scans(hull, AUX_PRIMES))
    line = len(nonzero) > 1 and hull.h.nvars == 1
    witness = None
    if any(len(g.terms) == 1 for g in nonzero) or line and not _line_critical(hull.v0, hull.h):
        trivial = True
    else:
        witness = _integer_zero(nonzero, len(hull.v0))
        lifted = None if witness else _hensel_zero(nonzero, scans)
        if lifted:
            witness = tuple(f"{x} mod {lifted[0]}" for x in lifted[1])
        trivial = witness is None and len(nonzero) > 1 and not line and _groebner_trivial(nonzero, support)
    # a prime disagrees when it has torus zeros on a trivial face or none on a critical one
    disagree = tuple(ell for ell, zeros in scans if bool(zeros) == trivial)
    verdict, ideal = ("non_critical", "trivial") if trivial else ("critical", "nontrivial")
    return FaceFinding(support, verdict, "char0", f"saturated gradient ideal is {ideal}", witness, disagree)


def _check_face_heuristic(hull: Hull, nonzero: Sequence[Polynomial], support) -> FaceFinding:
    # the scans with zeros, prime by prime: a prime is scanned only while
    # the face is undecided
    found = ((ell, zeros) for ell, zeros in _torus_scans(hull, AUX_PRIMES) if zeros)
    first = next(found, None)
    if first is None:
        fields = ",".join(f"F_{ell}" for ell in AUX_PRIMES)
        return FaceFinding(support, "non_critical", fields, "no torus zeros modulo any auxiliary prime (heuristic)")
    # d = n: no partial is zero, so the Jacobian of the partials is the
    # Hessian; d < n: Euler's relation makes it singular at every zero, so
    # only their existence matters
    if hull.h.nvars == len(hull.v0):
        lifted = _hensel_zero(nonzero, itertools.chain([first], found))
        if lifted:
            ell, point = lifted
            certificate = "torus zero with invertible Hessian lifts (Hensel)"
            return FaceFinding(support, "critical", f"F_{ell}", certificate, point)
    return FaceFinding(support, "inconclusive", f"F_{first[0]}", "torus zeros found but none certified liftable")
