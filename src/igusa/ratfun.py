"""Rational functions in t = q^(-s) with factored denominators.

A :class:`RationalZeta` is N(t) / prod_(A,B) (1 - q^(-A) t^B) at a
specialized prime power q, with exact rational coefficients throughout.
The module provides the poles -A/B of the factors, Maclaurin expansion,
and exact recovery of the numerator from a truncated series, which
checks the linear recurrence a given denominator implies.

Recovery never reduces the fraction silently: cancellation of
denominator factors against the numerator is the interesting output,
so it lives in a separate :func:`reduce_factors` pass that reports
which factors (hence which candidate poles) survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Factor = Tuple[int, int]  # (A, B): the factor 1 - q^(-A) * t^B


def _check_factor(factor: Factor) -> Factor:
    a, b = factor
    if a < 0 or b <= 0:
        raise ValueError(f"factor (A={a}, B={b}) needs A >= 0 and B >= 1")
    return (int(a), int(b))


def _trim(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    last = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            last = i
    return tuple(Fraction(c) for c in coeffs[: last + 1])


def _poly_mul(p: Sequence[Fraction], r: Sequence[Fraction]) -> List[Fraction]:
    if not p or not r:
        return []
    out = [Fraction(0)] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(r):
            out[i + j] += a * b
    return out


def poles(factors: Sequence[Factor]) -> Tuple[Fraction, ...]:
    """The distinct real parts -A/B of the poles of prod (1 - q^(-A) t^B),
    in increasing order."""
    return tuple(sorted({Fraction(-a, b) for a, b in factors}))


def denominator_polynomial(factors: Sequence[Factor], q: int) -> List[Fraction]:
    """Coefficients of prod (1 - q^(-A) t^B) as a polynomial in t."""
    poly: List[Fraction] = [Fraction(1)]
    for a, b in map(_check_factor, factors):
        factor_poly = [Fraction(0)] * (b + 1)
        factor_poly[0] = Fraction(1)
        factor_poly[b] = -Fraction(1, q**a)
        poly = _poly_mul(poly, factor_poly)
    return poly


@dataclass(frozen=True)
class RationalZeta:
    """N(t) / prod (1 - q^(-A) t^B) with exact coefficients, at prime power q."""

    numerator: Tuple[Fraction, ...]
    denominator_factors: Tuple[Factor, ...]
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be a prime power >= 2")
        object.__setattr__(self, "numerator", _trim(self.numerator))
        object.__setattr__(
            self,
            "denominator_factors",
            tuple(sorted(_check_factor(f) for f in self.denominator_factors)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalZeta):
            return NotImplemented
        if self.q != other.q:
            return False
        # cross-multiply: N1 * D2 == N2 * D1 as polynomials in t
        left = _poly_mul(self.numerator, denominator_polynomial(other.denominator_factors, self.q))
        right = _poly_mul(other.numerator, denominator_polynomial(self.denominator_factors, self.q))
        return _trim(left) == _trim(right)

    def __hash__(self):
        # equal values share q and their Maclaurin coefficients
        return hash((self.q, expand(self, 3)))

    def __str__(self) -> str:
        num = _poly_str(self.numerator)
        if not self.denominator_factors:
            return num
        dens = " * ".join(
            f"(1 - q^-{a} t^{b})" if b != 1 else f"(1 - q^-{a} t)"
            for a, b in self.denominator_factors
        )
        return f"({num}) / {dens}  [q={self.q}]"

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "numerator": [str(c) for c in self.numerator],
            "denominator_factors": [list(f) for f in self.denominator_factors],
        }


def _poly_str(coeffs: Sequence[Fraction]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        if m == 0:
            parts.append(str(c))
        else:
            mono = "t" if m == 1 else f"t^{m}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def expand(z: RationalZeta, depth: int) -> Tuple[Fraction, ...]:
    """Exact Maclaurin coefficients of z up to t^depth: a series, the
    tuple of its coefficients of t^0 .. t^depth.

    Each factor 1/(1 - q^(-A) t^B) turns a series s into s' with
    s'[m] = s[m] + q^(-A) * s'[m - B].
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    coeffs = [
        z.numerator[m] if m < len(z.numerator) else Fraction(0)
        for m in range(depth + 1)
    ]
    for a, b in z.denominator_factors:
        u = Fraction(1, z.q**a)
        for m in range(b, depth + 1):
            coeffs[m] = coeffs[m] + u * coeffs[m - b]
    return tuple(coeffs)


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of numerator recovery from a truncated series."""

    ok: bool
    numerator: Optional[Tuple[Fraction, ...]]
    residuals: Tuple[Tuple[int, Fraction], ...]  # (degree, nonzero coefficient)


def recover_numerator(
    series: Sequence[Fraction], factors: Sequence[Factor], q: int, max_deg: int
) -> RecoveryResult:
    """Recover N(t) of degree <= max_deg with series = N / prod(factors).

    Multiplies the series by the denominator polynomial and demands that
    every reliable coefficient of degree in (max_deg, depth] vanish
    exactly.  Nonzero tail coefficients are returned as residuals.

    The series must extend at least one coefficient past max_deg so the
    residual window is nonempty; a margin of sum(B) coefficients (the
    full recurrence order) makes the check maximally informative and is
    what the default parameters of the verification pipeline aim for.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    depth = len(series) - 1
    if depth < max_deg + 1:
        raise ValueError(
            f"series depth {depth} leaves no residual coefficients "
            f"beyond max_deg {max_deg}"
        )
    # series * prod(1 - q^(-A) t^B), reliable through degree depth
    product = _poly_mul(denominator_polynomial(factors, q), series)[: depth + 1]
    residuals = tuple(
        (m, product[m]) for m in range(max_deg + 1, depth + 1) if product[m] != 0
    )
    if residuals:
        return RecoveryResult(ok=False, numerator=None, residuals=residuals)
    return RecoveryResult(
        ok=True, numerator=_trim(product[: max_deg + 1]), residuals=()
    )


def divide_out_factor(
    numerator: Sequence[Fraction], factor: Factor, q: int
) -> Optional[Tuple[Fraction, ...]]:
    """N / (1 - q^(-A) t^B) when the division is exact, else None.

    The quotient's coefficients c are those of the series N / (1 - q^(-A) t^B)
    (``expand``); exactness is equivalent to c vanishing in degrees
    (deg N - B, deg N].
    """
    b = _check_factor(factor)[1]
    num = _trim(numerator)
    if not num:
        return ()
    deg = len(num) - 1
    c = expand(RationalZeta(num, (factor,), q), deg)
    if any(c[max(deg - b + 1, 0) :]):
        return None
    quotient = _trim(c[: max(deg - b + 1, 0)])
    # verify: quotient * factor == numerator
    if _trim(_poly_mul(quotient, denominator_polynomial([factor], q))) != num:
        raise AssertionError("inconsistent exact division")
    return quotient


@dataclass(frozen=True)
class ReductionResult:
    """Which denominator factors survive cancellation against the numerator."""

    reduced: RationalZeta
    cancelled: Tuple[Factor, ...]
    surviving: Tuple[Factor, ...]


def reduce_factors(z: RationalZeta) -> ReductionResult:
    """Cancel denominator factors dividing the numerator exactly.

    Factors are retired one at a time (a factor appearing twice must
    divide twice to disappear twice).  The surviving factors carry the
    candidate poles that the numerator does not cancel.
    """
    num = z.numerator
    cancelled: List[Factor] = []
    surviving: List[Factor] = []
    for fac in z.denominator_factors:
        quotient = divide_out_factor(num, fac, z.q)
        if quotient is None:
            surviving.append(fac)
        else:
            num = quotient
            cancelled.append(fac)
    reduced = RationalZeta(num, tuple(surviving), z.q)
    return ReductionResult(
        reduced=reduced, cancelled=tuple(cancelled), surviving=tuple(surviving)
    )
