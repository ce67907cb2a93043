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
  zeros pairing off across the two eliminations).
* ``finite_field_heuristic`` (any n): scan the torus (F_l^x)^n for a
  list of auxiliary primes l.  A common zero whose Hessian is
  invertible mod l lifts to characteristic zero (Hensel), certifying a
  critical verdict; finding no zeros for any l supports non-critical,
  flagged as heuristic; anything else is inconclusive.

The report records the per-face finding in both worlds when available
and flags auxiliary primes that disagree with the characteristic-0
verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .mpoly import Polynomial
from .newton import Face, NewtonPolyhedron, build_polyhedron

DEFAULT_AUX_PRIMES = (101, 103, 107)
_GRID_BUDGET = 4 * 10**6


@dataclass(frozen=True)
class FaceFinding:
    """Outcome for one face polynomial."""

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


def _char0_witness(partials: Sequence[Polynomial], variables) -> Optional[Tuple]:
    """Best-effort explicit common zero with nonzero coordinates.

    Tries small integer points first, then sympy's solver; returns a
    tuple of exact values (ints/rationals or algebraic expressions as
    strings) or None if nothing concrete was found.
    """
    nonzero = [g for g in partials if not g.is_zero()]
    n = len(variables)
    for point in itertools.product([1, -1, 2, -2, 3, -3, 5, -5], repeat=n):
        if all(g.evaluate(point) == 0 for g in nonzero):
            return tuple(point)
    import sympy

    symbols = sympy.symbols(list(variables))
    system = [_to_sympy(g, symbols) for g in nonzero]
    try:
        solutions = sympy.solve(system, list(symbols), dict=True)
    except Exception:
        return None
    for sol in solutions:
        # instantiate free symbols with small nonzero rationals
        for fill in (1, 2, 3, -1, sympy.Rational(1, 2)):
            subs = dict(sol)
            point = []
            ok = True
            for s in symbols:
                val = subs.get(s, s)
                val = sympy.simplify(sympy.sympify(val).subs(
                    {sym: fill for sym in val.free_symbols} if hasattr(val, "free_symbols") else {}
                ))
                if val.free_symbols or val == 0:
                    ok = False
                    break
                point.append(val)
            if not ok:
                continue
            if all(sympy.simplify(expr.subs(dict(zip(symbols, point)))) == 0 for expr in system):
                return tuple(
                    int(v) if v.is_Integer else str(v) for v in point
                )
    return None


def _torus_zeros_mod(partials: Sequence[Polynomial], ell: int, nvars: int):
    """All common zeros of the partials on (F_ell^x)^n, as tuples."""
    import numpy as np

    size = (ell - 1) ** nvars
    if size > _GRID_BUDGET:
        raise ValueError(
            f"heuristic grid (F_{ell}^x)^{nvars} has {size} points; "
            "supply smaller auxiliary primes"
        )
    axes = np.meshgrid(*[np.arange(1, ell, dtype=np.int64)] * nvars, indexing="ij")
    flat = [a.reshape(-1) for a in axes]
    mask = np.ones(size, dtype=bool)
    for g in partials:
        if g.is_zero():
            continue
        vals = np.zeros(size, dtype=np.int64)
        for exps, coeff in g.terms.items():
            term = np.full(size, coeff % ell, dtype=np.int64)
            for x, e in zip(flat, exps):
                if e:
                    term = term * pow_mod_array(x, e, ell) % ell
            vals = (vals + term) % ell
        mask &= vals == 0
        if not mask.any():
            return []
    idx = np.nonzero(mask)[0]
    return [tuple(int(x[i]) for x in flat) for i in idx]


def pow_mod_array(arr, e: int, ell: int):
    """arr**e mod ell by square-and-multiply, staying inside int64."""
    result = None
    base = arr % ell
    while e:
        if e & 1:
            result = base.copy() if result is None else result * base % ell
        e >>= 1
        if e:
            base = base * base % ell
    return result


def _hessian_rank_mod(f_tau: Polynomial, point, ell: int) -> int:
    n = f_tau.nvars
    rows = []
    for i in range(n):
        gi = f_tau.partial(i)
        rows.append([gi.partial(j).evaluate(point) % ell for j in range(n)])
    # Gaussian elimination over F_ell
    r = 0
    m = [row[:] for row in rows]
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c] % ell), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, ell)
        m[r] = [(x * inv) % ell for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] % ell:
                fmul = m[i][c]
                m[i] = [(a - fmul * b) % ell for a, b in zip(m[i], m[r])]
        r += 1
    return r


def check_noncritical(
    f: Polynomial,
    mode: str = "exact_small",
    aux_primes: Sequence[int] = DEFAULT_AUX_PRIMES,
    polyhedron: Optional[NewtonPolyhedron] = None,
) -> NonCritReport:
    """Decide (exactly or heuristically) whether f is Newton non-critical.

    ``exact_small`` is a complete characteristic-0 decision, limited to
    n <= 2; it additionally scans the auxiliary primes and flags those
    whose torus zeros disagree with the exact verdict.
    ``finite_field_heuristic`` works in any dimension.
    """
    if mode not in ("exact_small", "finite_field_heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact_small" and f.nvars > 2:
        raise ValueError("exact_small mode is limited to polynomials in <= 2 variables")
    poly = polyhedron if polyhedron is not None else build_polyhedron(f)
    findings: List[FaceFinding] = []
    overall = "non_critical"
    for face in poly.faces:
        f_tau = poly.face_polynomial(f, face)
        partials = f_tau.partials()
        if mode == "exact_small":
            finding = _check_face_exact(f_tau, partials, face, aux_primes)
        else:
            finding = _check_face_heuristic(f_tau, partials, face, aux_primes)
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
    trivial = _torus_ideal_trivial(partials, f_tau.variables)
    # cross-check each auxiliary prime; cheap for n <= 2
    disagree = []
    for ell in aux_primes:
        try:
            zeros = _torus_zeros_mod(partials, ell, f_tau.nvars)
        except ValueError:
            continue
        if trivial and zeros:
            disagree.append(ell)
        if not trivial and not zeros:
            disagree.append(ell)
    if trivial:
        return FaceFinding(
            face_support=_face_key(face),
            verdict="non_critical",
            field="char0",
            certificate="saturated gradient ideal is trivial",
            disagreeing_primes=tuple(disagree),
        )
    witness = _char0_witness(partials, f_tau.variables)
    return FaceFinding(
        face_support=_face_key(face),
        verdict="critical",
        field="char0",
        certificate="saturated gradient ideal is nontrivial",
        witness=witness,
        disagreeing_primes=tuple(disagree),
    )


def _check_face_heuristic(f_tau, partials, face, aux_primes) -> FaceFinding:
    found_any = False
    for ell in aux_primes:
        zeros = _torus_zeros_mod(partials, ell, f_tau.nvars)
        if not zeros:
            continue
        found_any = True
        for point in zeros[:64]:
            if _hessian_rank_mod(f_tau, point, ell) == f_tau.nvars:
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
