"""Exact linear algebra over the rationals.

``rank`` and ``det`` share one fraction-free integer elimination
(Bareiss), with rational rows scaled to integer rows first; ``rank_mod``
runs the same elimination over F_ell.  The other routines work with
``fractions.Fraction`` entries (integers are accepted and coerced).
Everything is written for the desk-scale matrices that arise from
Newton polyhedra in at most a handful of variables; no attempt is made
at asymptotic efficiency.

``Eps`` implements the ordered field Q(eps) restricted to polynomials in
an infinitesimal eps > 0: comparisons are lexicographic in the
coefficient sequence (the constant term dominates).  It is used for the
symbolic perturbations that make cone triangulations and half-open cell
assignments deterministic without genericity assumptions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _int_rows(rows):
    """Each row scaled by the lcm of its denominators: an integer matrix
    with the same rank."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in fracs))
        out.append([int(x * scale) for x in fracs])
    return out


def _bareiss(m, ell: int = 0):
    """Fraction-free (Bareiss) row echelon form of an integer matrix, in place.

    Returns (rank, pivot): every update divides exactly by the previous
    pivot, so entries stay integer minors of the input.  For a square
    matrix of full rank the signed last pivot is the determinant.  Given
    a prime ell, the entries are residues mod ell, each update is reduced
    mod ell instead of divided, and only the rank means anything.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r, prev, sign = 0, 1, 1
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            if ell:
                m[i] = [(p * a - f * b) % ell for a, b in zip(row, top)]
            else:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        r += 1
    return r, sign * prev


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows."""
    return _bareiss(_int_rows(rows))[0]


def rank_mod(rows, ell: int) -> int:
    """Rank over F_ell of an integer matrix given as a list of rows."""
    return _bareiss([[x % ell for x in row] for row in rows], ell)[0]


def det(rows) -> int:
    """Determinant of a square integer matrix (1 for the empty matrix)."""
    r, pivot = _bareiss([list(row) for row in rows])
    return pivot if r == len(rows) else 0


def normal(rows, ncols: int):
    """Primitive integer normal of ncols - 1 rational rows, or None.

    The generalized cross product (signed maximal minors of the rows
    scaled to integers) is orthogonal to every row and vanishes exactly
    when the rows are dependent.  The sign is normalised so the first
    nonzero entry is positive.
    """
    m = _int_rows(rows)
    cross = [(-1) ** j * det([row[:j] + row[j + 1:] for row in m]) for j in range(ncols)]
    g = gcd(*cross)
    if g == 0:
        return None
    if next(x for x in cross if x) < 0:
        g = -g
    return tuple(x // g for x in cross)


def solve(rows, rhs):
    """Solve A x = rhs exactly; return None when inconsistent.

    The right-hand side entries may be Fractions or any type closed
    under +, -, and multiplication/division by Fraction (``Eps`` works).
    When the system is underdetermined the free variables are set to 0.
    """
    m = _frac_rows(rows)
    b = list(rhs)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        b[r] = b[r] * inv
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * p for a, p in zip(m[i], m[r])]
                b[i] = b[i] - b[r] * f
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if not _is_zero(b[i]):
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = b[i]
    return x


def _is_zero(value) -> bool:
    if isinstance(value, Eps):
        return value.is_zero()
    return value == 0


class Eps:
    """A polynomial in an infinitesimal eps, ordered as eps -> 0+.

    Stored as a coefficient tuple (constant term first).  Comparison is
    lexicographic, which matches the limit ordering: a positive constant
    term dominates any multiple of eps, and so on down the powers.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def power(cls, k: int, scale=1) -> "Eps":
        """The element scale * eps^k."""
        return cls([0] * k + [scale])

    def is_zero(self) -> bool:
        return not self.coeffs

    def _padded(self, other):
        a, b = self.coeffs, other.coeffs
        width = max(len(a), len(b))
        a = a + (Fraction(0),) * (width - len(a))
        b = b + (Fraction(0),) * (width - len(b))
        return a, b

    def __add__(self, other):
        if not isinstance(other, Eps):
            other = Eps([other])
        a, b = self._padded(other)
        return Eps([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Eps([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Eps):
            other = Eps([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if isinstance(scalar, Eps):
            # full polynomial product; degrees stay tiny here
            out = [Fraction(0)] * (len(self.coeffs) + len(scalar.coeffs))
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(scalar.coeffs):
                    out[i + j] += a * b
            return Eps(out)
        return Eps([c * Fraction(scalar) for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Eps):
            raise TypeError("division by an Eps value is not supported")
        return Eps([c / Fraction(scalar) for c in self.coeffs])

    def sign(self) -> int:
        for c in self.coeffs:
            if c != 0:
                return 1 if c > 0 else -1
        return 0

    def _cmp(self, other):
        if not isinstance(other, Eps):
            other = Eps([other])
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (Eps, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Eps(0)"
        parts = [f"{c}*eps^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Eps(" + " + ".join(parts) + ")"
