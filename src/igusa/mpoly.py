"""Sparse multivariate polynomials with integer coefficients.

A monomial is an exponent tuple (one natural number per variable); a
polynomial is a map from monomials to nonzero integer coefficients
together with an ordered tuple of variable names.  Terms are kept in
graded lexicographic order for printing and hashing, so equal
polynomials have equal canonical forms.

The transform used by the stationary-phase recursion lives here:
``shift_scale`` rewrites f(P + p x) as p^e * g(x) with g of p-unit
content, returning (e, g), an exact identity over the integers, tested
by re-expansion.  It expands each term by the binomial theorem into one
map of terms, which the value balls of ``oracle`` read too.

The one vectorised evaluator lives here too, for every caller that needs
f on many residue classes: ``eval_mod`` reduces f mod m at points given
by one broadcastable array per variable (the columns of explicit points,
or the axes of a grid from ``residue_axes``, which is never built), and
``classify_mod_p`` adds the mask where every partial vanishes mod p.
It runs in int64 and refuses a modulus m with (m - 1)^2 >= 2^63.
``reduction_key`` names f mod p, so that a caller can share one scan
among the polynomials with the same reduction.  They import numpy
themselves, so parsing a polynomial does not load it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

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
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"monomial arity {len(exps)} != {len(variables)} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > MAX_EXPONENT for e in exps):
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

    # -- arithmetic ---------------------------------------------------

    def _check_vars(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = constant(self.variables, other)
        self._check_vars(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return Polynomial(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        self._check_vars(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation and calculus --------------------------------------

    def evaluate(self, point: Sequence[Union[int, Fraction]]):
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


def constant(variables: Sequence[str], c: int) -> Polynomial:
    return Polynomial(variables, {(0,) * len(variables): c})


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


def _shift_terms(f: Polynomial, point: Sequence[int], p: int, below: Optional[int] = None) -> dict:
    """The terms of f(P + p x): each term of f expanded by the binomial
    theorem, (P_i + p x_i)^k = sum over j of C(k, j) P_i^(k-j) p^j x_i^j.
    With ``below``, only the terms with every j < below: those left out are
    0 mod p^below."""
    rows: dict = {}  # (i, k) -> the nonzero (j, coefficient) of (P_i + p x_i)^k
    out: dict = {}
    for exps, coeff in f.terms.items():
        factors = []
        for i, k in enumerate(exps):
            row = rows.get((i, k))
            if row is None:
                a = point[i]
                top = k if below is None else min(k, below - 1)
                row = rows[(i, k)] = [
                    (j, comb(k, j) * a ** (k - j) * p**j) for j in range(top + 1) if a or j == k
                ]
            factors.append(row)
        for choice in itertools.product(*factors):
            c = coeff
            for _, b in choice:
                c *= b
            mono = tuple(j for j, _ in choice)
            out[mono] = out.get(mono, 0) + c
    return out


def _scale_out(variables: Sequence[str], terms: dict, p: int) -> Tuple[int, Polynomial]:
    """(e, g) with sum(terms) = p^e * g and g of p-unit content; terms not all 0."""
    e = p_valuation(gcd(*terms.values()), p)
    scale = p**e
    return e, Polynomial(variables, {m: c // scale for m, c in terms.items()})


def shift_scale(f: Polynomial, point: Sequence[int], p: int) -> Tuple[int, Polynomial]:
    """Write f(P + p x) = p^e * g(x) with g of p-unit content.

    P must be an integer point and f nonzero.  Returns (e, g).
    """
    if f.is_zero():
        raise ValueError("shift_scale of the zero polynomial")
    if len(point) != f.nvars:
        raise ValueError(f"point arity {len(point)} != {f.nvars}")
    return _scale_out(f.variables, _shift_terms(f, [int(x) for x in point], p), p)


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
    ``itertools.product``.  For n = 0 that is () and nothing is built."""
    import numpy as np

    return np.ix_(*(np.arange(low, p, dtype=np.int64) for _ in range(n)))


def reduction_key(f: Polynomial, p: int) -> tuple:
    """The terms of f mod p whose coefficient is nonzero mod p, in canonical
    order: f and g have equal keys exactly when f = g mod p.  Values mod p
    and the partials mod p, since d(f mod p) = (df) mod p, depend on this
    key alone, so a residue scan of f serves every g with the same key."""
    return tuple((e, c % p) for e, c in f.canonical_key()[1] if c % p)


def eval_mod(f: Polynomial, coords, modulus: int):
    """f mod modulus, in [0, modulus), at the points of coords: one array
    per variable, broadcast together (the columns pts.T of explicit points,
    or ``residue_axes``).  The result has their broadcast shape and dtype
    int64, which is exact while (modulus - 1)^2 < 2^63; a larger modulus
    raises ValueError.  Each factor of a term is reduced before it
    multiplies, so a term is at most (m - 1)^2; the M terms are summed
    unreduced while M (m - 1)^2 < 2^63, else reduced after each sum."""
    import numpy as np

    if (modulus - 1) ** 2 >= 2**63:
        raise ValueError(f"eval_mod needs (modulus - 1)^2 < 2^63 for int64, got modulus {modulus}")
    coords = [np.asarray(c).astype(np.int64, copy=False) for c in coords]
    acc = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)), dtype=np.int64)
    lazy = len(f.terms) * (modulus - 1) ** 2 < 2**63
    for exps, coeff in f.terms.items():
        term = coeff % modulus
        for c, e in zip(coords, exps):
            if e:
                term = term % modulus * _pow_mod(c, e, modulus)
        acc += term
        if not lazy:
            acc %= modulus
    return acc % modulus


def classify_mod_p(f: Polynomial, coords, p: int):
    """(f mod p at the points of coords, mask of the points where every
    partial of f is 0 mod p), both by ``eval_mod``."""
    import numpy as np

    values = eval_mod(f, coords, p)
    critical = np.ones(values.shape, dtype=bool)
    for d in f.partials():
        critical &= eval_mod(d, coords, p) == 0
    return values, critical
