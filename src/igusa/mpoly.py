"""Sparse multivariate polynomials with integer coefficients.

A monomial is an exponent tuple (one natural number per variable); a
polynomial is a map from monomials to nonzero integer coefficients
together with an ordered tuple of variable names.  Terms are kept in
graded lexicographic order for printing and hashing, so equal
polynomials have equal canonical forms.

The one lift kernel lives here: ``_lift`` writes f(P + p x) on term maps
as f(P) + p^e h(x) with h of p-unit content.  Given a precision m it
keeps only the terms mod p^m that the value balls of ``oracle`` read;
without one it is exact, for the stationary-phase recursion of ``spf``.

The one vectorised evaluator lives here too, for every caller that needs
f on many residue classes: ``eval_mod`` reduces f, given by its
(monomial, coefficient) pairs, mod m at points given by one
broadcastable array per variable (the columns of explicit points, or the
axes of a grid from ``residue_axes``, which is never built), and
``_classify`` adds, for the terms of f mod p, the mask where every
partial vanishes mod p, reading each partial's terms mod p off f's terms
and evaluating them by the same loop; the value balls and ``spf`` call
it.  It runs in int64 and refuses a modulus m with (m - 1)^2 >= 2^63.
Both of its callers key a residue scan on the terms of f mod p that are
nonzero mod p: values mod p and, since d(f mod p) = (df) mod p, the
partials mod p depend on these alone, so one scan serves every
polynomial with the same reduction.  They import numpy themselves, so
parsing a polynomial does not load it.
"""

from __future__ import annotations

import operator
from math import comb, gcd
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .numeric import p_valuation

Monomial = Tuple[int, ...]

MAX_EXPONENT = 10**6  # the largest exponent a polynomial (or the parser) accepts


def _term_sort_key(exps: Monomial):
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial over Z."""

    __slots__ = ("variables", "terms", "_key")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, int]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables}")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != len(variables):
                raise ValueError(
                    f"monomial arity {len(exps)} != {len(variables)} variables"
                )
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if exps and max(exps) > MAX_EXPONENT:
                raise OverflowError(f"exponent over limit {MAX_EXPONENT} in {exps}")
            if not isinstance(coeff, int):
                raise TypeError(f"integer coefficients only, got {type(coeff).__name__}")
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", dict(clean))
        key = (variables, tuple(sorted(clean.items(), key=lambda kv: _term_sort_key(kv[0]))))
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def canonical_key(self):
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- evaluation and calculus --------------------------------------

    def evaluate(self, point: Sequence):
        """Evaluate at a point of ints or Fractions."""
        if len(point) != self.nvars:
            raise ValueError(f"point arity {len(point)} != {self.nvars}")
        acc = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term = term * x**e
            acc = acc + term
        return acc

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            c = coeff * e[i]
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + c
        return Polynomial(self.variables, out)

    def partials(self) -> Tuple["Polynomial", ...]:
        return tuple(self.partial(i) for i in range(self.nvars))

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]), reverse=True)
        pieces = []
        for idx, (exps, coeff) in enumerate(ordered):
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e > 0
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if idx == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


def from_terms(variables: Sequence[str], pairs: Iterable[Tuple[Monomial, int]]) -> Polynomial:
    terms: dict = {}
    for exps, c in pairs:
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + c
    return Polynomial(variables, terms)


def direct_sum(f: Polynomial, g: Polynomial) -> Polynomial:
    """f(x) + g(y) on the disjoint union of the two variable sets.

    Variable names must not collide; that is the caller's namespace
    guarantee, and a collision is an error rather than a rename.
    """
    shared = set(f.variables) & set(g.variables)
    if shared:
        raise ValueError(f"variable collision in direct sum: {sorted(shared)}")
    variables = f.variables + g.variables
    pad_g = (0,) * g.nvars
    pad_f = (0,) * f.nvars
    terms: dict = {}
    for exps, c in f.terms.items():
        terms[exps + pad_g] = terms.get(exps + pad_g, 0) + c
    for exps, c in g.terms.items():
        terms[pad_f + exps] = terms.get(pad_f + exps, 0) + c
    return Polynomial(variables, terms)


def _lift(terms: Iterable[Tuple[Monomial, int]], point: Sequence[int], p: int,
          precision: Optional[int] = None, rows: Optional[dict] = None) -> Tuple[int, int, dict]:
    """(base, e, h) with f(P + p x) = base + p^e h(x) for the f with these
    terms: base = f(P) and h a map of non-constant terms of p-unit content.
    The binomial rows of (P_i + p x_i)^k are kept per (P_i, k) in ``rows``
    (one entry j = k when P_i = 0).  With a precision m, only the terms
    below p^m are kept, taken mod p^m: base is f(P) mod p^m, h is taken mod
    p^(m - e), and e = m, h = {} when f(P + p x) = f(P) mod p^m.  Without
    one it is exact, and e = 0, h = {} for a constant f."""
    modulus = None if precision is None else p**precision
    rows = {} if rows is None else rows
    out: dict = {}
    for exps, coeff in terms:
        expanded = [((), coeff)]  # the term expanded in the variables so far
        for key in zip(point, exps):
            row = rows.get(key)
            if row is None:
                a, k = key
                top = k if precision is None else min(k, precision - 1)
                row = rows[key] = [((j,), comb(k, j) * pow(a, k - j, modulus) * p**j)
                                   for j in range(top + 1) if a or j == k]
            expanded = [(mono + j, c * b) for mono, c in expanded for j, b in row]
        for mono, c in expanded:
            out[mono] = out.get(mono, 0) + c
    base = out.pop((0,) * len(point), 0)
    if modulus is None:
        out = {mono: c for mono, c in out.items() if c}
    else:
        base %= modulus
        out = {mono: r for mono, c in out.items() if (r := c % modulus)}
    if not out:
        return base, precision or 0, out
    e = p_valuation(gcd(*out.values()), p)
    scale = p**e
    return base, e, {mono: c // scale for mono, c in out.items()}


def _pow_mod(arr, e: int, modulus: int):
    if e == 1:
        return arr % modulus
    if e == 2:
        a = arr % modulus
        return a * a % modulus
    result = None
    base = arr % modulus
    while e:
        if e & 1:
            result = base.copy() if result is None else result * base % modulus
        e >>= 1
        if e:
            base = base * base % modulus
    return result


RESIDUE_LIMIT = 4 * 10**6  # residues in one scan: value balls, spf domains, noncrit tori
# nested singular lifts in one recursion (value balls, spf): a lift holds one
# Python frame, and two while `spf --trace` writes its JSON, so the cap keeps
# the deepest call well inside the default recursion limit of 1000
MAX_LIFTS = 300


def residue_axes(p: int, n: int, low: int = 0):
    """n int64 axes of low .. p-1, shaped as by ``np.ix_``: broadcast, they
    are the grid {low..p-1}^n in C order, the order of
    ``itertools.product``.  For n = 0 that is () and nothing is built.
    A grid of more than RESIDUE_LIMIT residues raises ValueError before
    anything is built: every scan (value balls, spf domains, noncrit tori)
    takes its grid from here."""
    size = (p - low) ** n
    if size > RESIDUE_LIMIT:
        raise ValueError(
            f"a residue domain of dimension {n} mod {p} has {p - low}^{n} = {size} "
            f"residues, over the limit of {RESIDUE_LIMIT}"
        )
    import numpy as np

    return np.ix_(*(np.arange(low, p, dtype=np.int64) for _ in range(n)))


def eval_mod(terms: Sequence[Tuple[Monomial, int]], coords, modulus: int):
    """The polynomial with these (monomial, coefficient) terms mod modulus,
    in [0, modulus), at the points of coords: one array per variable,
    broadcast together (the columns pts.T of explicit points, or
    ``residue_axes``).  The result has their broadcast shape and dtype
    int64, which is exact while (modulus - 1)^2 < 2^63; a larger modulus
    raises ValueError.  Each factor of a term is reduced before it
    multiplies, so a term is at most (m - 1)^2; the M terms are summed
    unreduced while M (m - 1)^2 < 2^63, else reduced after each sum."""
    import numpy as np

    if (modulus - 1) ** 2 >= 2**63:
        raise ValueError(f"eval_mod needs (modulus - 1)^2 < 2^63 for int64, got modulus {modulus}")
    coords = [np.asarray(c).astype(np.int64, copy=False) for c in coords]
    acc = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)), dtype=np.int64)
    lazy = len(terms) * (modulus - 1) ** 2 < 2**63
    for exps, coeff in terms:
        term = coeff % modulus
        for c, e in zip(coords, exps):
            if e:
                term = term % modulus * _pow_mod(c, e, modulus)
        acc += term
        if not lazy:
            acc %= modulus
    return acc % modulus


def _classify(terms: Sequence[Tuple[Monomial, int]], coords, p: int):
    """(values mod p at the points of coords, mask of the points where every
    partial is 0 mod p), for the terms mod p, each nonzero mod p, of a
    polynomial, both by ``eval_mod``' loop.  Each partial is read off the
    terms: the term
    c x^e gives e_i c x^(e - 1_i), kept when e_i c is nonzero mod p, so a
    partial that is 0 mod p costs no evaluation and builds no Polynomial."""
    import numpy as np

    values = eval_mod(terms, coords, p)
    critical = np.ones(values.shape, dtype=bool)
    for i in range(len(coords)):
        partial = [(exps[:i] + (exps[i] - 1,) + exps[i + 1:], exps[i] * c % p)
                   for exps, c in terms if exps[i] * c % p]
        if partial:
            critical &= eval_mod(partial, coords, p) == 0
    return values, critical
