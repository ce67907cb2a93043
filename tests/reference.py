"""Reference routes that the tests check the library's counters against.

No command runs these; they live with the tests so that the library keeps
one counting route, and they stay plain so that agreeing with them means
something:

* ``count_mod`` counts the solutions of f = 0 mod p^m by breadth-first
  lifting: the survivors mod p^m expand to their p^n children mod
  p^(m+1).  It takes no Hensel shortcut and shares no residue scan.  Each
  level is one numpy array of survivors, evaluated in blocks by its own
  plain evaluator, one multiplication at a time: int64 while that is
  exact, object arrays of Python ints beyond.  With a domain it counts
  only the survivors whose valuation vector lies in a cone domain.
* Cone domains are membership functions on valuation vectors:
  ``zero_cone``, ``face_cone`` and ``product``.
* ``m_of``, ``first_meet_locus`` and ``proper_faces`` read the weight data
  of a Newton polyhedron off its support and face lattice.
* ``sup_bound`` certifies the supremum over Z_p^n of a pointwise order
  on a residue tree.
* ``value_balls`` is the value-ball count as it was before its nodes
  were taken mod p^m up to a unit: memoised on each exact polynomial and
  precision, its residue classes sorted by plain evaluation of f and its
  partials, and its lifts expanded in full.
* ``recover_numerator`` is the library's numerator recovery as it was on
  ``Fraction``s throughout, before the library moved it to ints over one
  common denominator.  ``divide_out_factor`` is the division by one factor
  on ``Fraction``s, the reference for ``reduce_factors``, which retires
  the factors that divide exactly.

None of them imports a route it checks (``value_balls``, ``ball_counts``
and their ``_normal_form`` and ``_ball_counter``, ``spf_evaluate``,
``spf_counts``, the lift kernel ``_lift`` and ``shift_scale``, the
evaluation kernel ``eval_mod``, ``classify_mod_p``, ``_classify``,
``_eval_terms``, ``_pow_mod``, ``residue_axes``, or ``ratfun``'s int
routes); ``test_imports`` holds this file to that.
"""

import itertools
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from igusa.mpoly import Polynomial
from igusa.newton import Face, NewtonPolyhedron, _dot
from igusa.numeric import PrimeSpec, p_valuation
from igusa.oracle import CountSeries
from igusa.ratfun import Factor, RecoveryResult

Domain = Callable[[Tuple[int, ...]], bool]  # membership of a valuation vector

_CAND_CHUNK = 1 << 20  # candidate rows evaluated per numpy block


# ---------------------------------------------------------------------------
# Newton polyhedra


def m_of(poly: NewtonPolyhedron, a: Sequence[int]) -> int:
    """min of a.omega over the support, for a weight vector a of naturals."""
    return min(_dot(a, omega) for omega in poly.support)


def first_meet_locus(poly: NewtonPolyhedron, a: Sequence[int]) -> Face:
    """The face where a.x is minimal over the polyhedron: its meet set is
    where a.omega = m_of(a), and its rays are the zero coordinates of a, so
    a = 0 gives the improper face."""
    m = m_of(poly, a)
    key = (frozenset(w for w in poly.support if _dot(a, w) == m),
           frozenset(i for i, x in enumerate(a) if x == 0))
    return next(face for face in poly.faces if (face.meet_support, face.rays) == key)


def proper_faces(poly: NewtonPolyhedron):
    """Every face but the polyhedron itself, which lies in no facet."""
    return [face for face in poly.faces if face.containing_facets]


# ---------------------------------------------------------------------------
# cone domains: sets A of valuation vectors.  At level m a vector is
# truncated there: a coordinate divisible by p^m reports m.


def zero_cone(vals: Tuple[int, ...]) -> bool:
    """A = {0}: all coordinates are units."""
    return not any(vals)


def face_cone(poly: NewtonPolyhedron, face: Face) -> Domain:
    """A = the weight vectors whose first meet locus is `face`."""
    return lambda vals: first_meet_locus(poly, vals) == face


def product(left: Domain, right: Domain, split: int) -> Domain:
    """A = left x right, left on the first `split` coordinates."""
    return lambda vals: left(vals[:split]) and right(vals[split:])


# ---------------------------------------------------------------------------
# counting by lifting


def _values_mod(f: Polynomial, pts, modulus: int):
    """f at every row of pts, whose entries lie in [0, modulus), reduced
    mod modulus in the dtype of pts, one multiplication at a time."""
    acc = np.zeros(len(pts), dtype=pts.dtype)
    for exps, coeff in f.terms.items():
        term = np.full(len(pts), coeff % modulus, dtype=pts.dtype)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * pts[:, i] % modulus
        acc = (acc + term) % modulus
    return acc


def _expand_level(f: Polynomial, surv, p: int, m: int):
    """The children mod p^(m+1) of the survivors mod p^m that are zeros of f,
    in int64 while (p^(m+1) - 1)^2 < 2^63, so that no product of two
    residues overflows, else in object arrays of Python ints."""
    n = surv.shape[1]
    modulus = p ** (m + 1)
    surv = surv.astype(np.int64 if (modulus - 1) ** 2 < 2**63 else object, copy=False)
    offsets = np.array(list(itertools.product(range(p), repeat=n)), dtype=surv.dtype)
    rows = max(1, _CAND_CHUNK // len(offsets))
    pieces = []
    for start in range(0, surv.shape[0], rows):
        block = surv[start : start + rows]
        cand = (block[:, None, :] + p**m * offsets[None, :, :]).reshape(-1, n)
        pieces.append(cand[_values_mod(f, cand, modulus) == 0])
    return np.concatenate(pieces, axis=0) if pieces else surv[:0]


def _in_domain(surv, domain: Domain, p: int, level: int) -> int:
    """How many survivors mod p^level have their valuation vector, truncated
    at level, in A; ``domain`` sees each distinct vector once."""
    if not len(surv):
        return 0
    vals = np.zeros(surv.shape, dtype=np.int64)
    for j in range(1, level + 1):
        vals += surv % p**j == 0
    classes, sizes = np.unique(vals, axis=0, return_counts=True)
    return sum(size for row, size in zip(classes.tolist(), sizes.tolist()) if domain(tuple(row)))


def count_mod(f: Polynomial, p: PrimeSpec, depth: int, domain: Optional[Domain] = None) -> CountSeries:
    """Exact N_m for m = 1..depth by breadth-first lifting.

    Every zero of f mod p^m is lifted, whatever the domain.  With a
    domain, N_m counts only the survivors whose valuation vector,
    truncated at m, belongs to A, and N_0 is whether the all-zero class
    does.  ``nodes_expanded`` counts survivors expanded by one level.
    """
    n = f.nvars
    counts = []
    nodes = 0
    surv = np.zeros((1, n), dtype=np.int64)
    for m in range(depth):
        nodes += len(surv)
        surv = _expand_level(f, surv, p.p, m)
        counts.append(len(surv) if domain is None else _in_domain(surv, domain, p.p, m + 1))
    n0 = 1 if domain is None else int(domain((0,) * n))
    return CountSeries(f=f, p=p, dim=n, counts=tuple(counts), n0=n0, nodes_expanded=nodes)


# ---------------------------------------------------------------------------
# value balls on exact polynomials


def _shifted(g: Polynomial, r: Tuple[int, ...], p: int) -> dict:
    """The nonzero terms of g(r + p x) - g(r), each term of g expanded in
    full by the binomial theorem."""
    out: dict = {}
    for exps, c in g.terms.items():
        for js in itertools.product(*(range(k + 1) for k in exps)):
            term = c
            for a, k, j in zip(r, exps, js):
                term *= comb(k, j) * a ** (k - j) * p**j
            out[js] = out.get(js, 0) + term
    out.pop((0,) * len(r), None)
    return {mono: c for mono, c in out.items() if c}


def value_balls(f: Polynomial, p: PrimeSpec, precision: int) -> dict:
    """The balls of f at a precision, as ``oracle.value_balls`` defines
    them, with a node memoised on its exact polynomial and precision.  Every
    class r mod p is classified by evaluating f and its partials at r; a
    class where some partial is a unit, or any class at precision 1, is
    the ball (1, g(r) mod p), and any other recurses on the exact
    g(r + p x) - g(r) = p^e h(x)."""
    q, n = p.p, f.nvars
    memo: dict = {}

    def balls(g: Polynomial, m: int) -> dict:
        if g.total_degree() == 0:
            return {(m, g.constant_term() % q**m): q ** (n * m)}
        if (g, m) in memo:
            return memo[(g, m)]
        out: dict = {}
        weight = q ** (n * (m - 1))  # the points mod p^m of one class
        partials = g.partials()
        for r in itertools.product(range(q), repeat=n):
            value = g.evaluate(r)
            if m == 1 or any(d.evaluate(r) % q for d in partials):
                out[(1, value % q)] = out.get((1, value % q), 0) + weight
                continue
            shifted = _shifted(g, r, q)
            e = min(p_valuation(c, q) for c in shifted.values())
            if e >= m:  # one point mod p^m
                out[(m, value % q**m)] = out.get((m, value % q**m), 0) + weight
                continue
            h = Polynomial(g.variables, {mono: c // q**e for mono, c in shifted.items()})
            for (k, c), w in balls(h, m - e).items():
                ball = (k + e, (value + q**e * c) % q ** (k + e))
                out[ball] = out.get(ball, 0) + w * q ** (n * (e - 1))
        memo[(g, m)] = out
        return out

    return balls(f, precision)


# ---------------------------------------------------------------------------
# certified suprema of pointwise orders


class BoundNotCertified(RuntimeError):
    """A residue-tree branch stayed open at max_depth; the supremum may be infinite."""


def sup_bound(f: Polynomial, p: PrimeSpec, mode: str, max_depth: int = 16) -> int:
    """Certified supremum on Z_p^n of L(f, .), the least order of f and its
    partials (mode "L"), or of ell(f, .), of the partials only ("ell").

    The residue tree refines Z_p^n into cosets a + p^j Z_p^n.  On such a coset
    every listed polynomial g satisfies v(g(x)) = v(g(a)) whenever
    v(g(a)) < j, so once the least order at a is below j it is constant on
    the branch, which closes with that value.  A branch still open at
    max_depth raises BoundNotCertified: the supremum may be finite but
    larger, or infinite (a singular or critical point of f).
    """
    polys = (f, *f.partials()) if mode == "L" else f.partials()
    best = 0
    stack = [(r, 1) for r in itertools.product(range(p.p), repeat=f.nvars)]
    while stack:
        point, depth = stack.pop()
        # a zero value has infinite order: counting it as depth keeps the branch open
        values = [g.evaluate(point) for g in polys]
        least = min(p_valuation(v, p.p) if v else depth for v in values)
        if least < depth:
            best = max(best, least)
            continue
        if depth >= max_depth:
            raise BoundNotCertified(
                f"branch {point} (mod {p.p}^{depth}) is still open at max_depth="
                f"{max_depth}; sup {mode} on this branch is >= {depth}"
            )
        step = p.p**depth
        for offset in itertools.product(range(p.p), repeat=f.nvars):
            stack.append((tuple(a + step * o for a, o in zip(point, offset)), depth + 1))
    return best


# ---------------------------------------------------------------------------
# numerator recovery and division by a factor, on Fractions throughout


def _poly_mul(p: Sequence[Fraction], r: Sequence[Fraction]) -> list:
    out = [Fraction(0)] * (len(p) + len(r) - 1) if p and r else []
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def _trim(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    last = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            last = i
    return tuple(Fraction(c) for c in coeffs[: last + 1])


def _denominator(factors: Sequence[Factor], q: int) -> list:
    """prod (1 - q^(-A) t^B), one factor polynomial at a time."""
    poly = [Fraction(1)]
    for a, b in factors:
        factor_poly = [Fraction(0)] * (b + 1)
        factor_poly[0] = Fraction(1)
        factor_poly[b] = -Fraction(1, q**a)
        poly = _poly_mul(poly, factor_poly)
    return poly


def recover_numerator(series: Sequence[Fraction], factors: Sequence[Factor], q: int,
                      max_deg: int) -> RecoveryResult:
    """series * prod (1 - q^(-A) t^B) through degree depth: its terms past
    max_deg are the residuals, else the rest is the numerator."""
    depth = len(series) - 1
    product = _poly_mul(_denominator(factors, q), series)[: depth + 1]
    residuals = tuple(
        (m, product[m]) for m in range(max_deg + 1, depth + 1) if product[m] != 0
    )
    if residuals:
        return RecoveryResult(ok=False, numerator=None, residuals=residuals)
    return RecoveryResult(ok=True, numerator=_trim(product[: max_deg + 1]), residuals=())


def divide_out_factor(numerator: Sequence[Fraction], factor: Factor,
                      q: int) -> Optional[Tuple[Fraction, ...]]:
    """N / (1 - q^(-A) t^B) when the division is exact, else None.  The
    quotient's coefficients c are those of the series N / (1 - q^(-A) t^B),
    c[m] = N[m] + q^(-A) c[m - B]; exactness is equivalent to c vanishing
    in degrees (deg N - B, deg N]."""
    a, b = factor
    num = _trim(numerator)
    if not num:
        return ()
    deg = len(num) - 1
    c = list(num)
    for m in range(b, deg + 1):
        c[m] += Fraction(1, q**a) * c[m - b]
    if any(c[max(deg - b + 1, 0) :]):
        return None
    quotient = _trim(c[: max(deg - b + 1, 0)])
    if _trim(_poly_mul(quotient, _denominator([factor], q))) != num:
        raise AssertionError("inconsistent exact division")
    return quotient
