"""Denominator of the zeta function of a direct sum f(x) + g(y).

For facet normals a of the Newton polyhedron of f and b of that of g,
with positive facet weights m_f(a) and m_g(b), put

    l  = lcm(m_f(a), m_g(b)),
    e  = m_f(a) / gcd(m_f(a), m_g(b)),
    e' = m_g(b) / gcd(m_f(a), m_g(b)).

The pair contributes the factor 1 - q^{-(e|b| + e'|a|)} t^l with
t = q^{-s}; pairs where either weight is 0 contribute no factor (the
affine exponent degenerates to -infinity) and are reported as inert.
The full denominator is the universal factor 1 - q^{-1} t times the
product over all facet pairs, and the candidate poles of the quotient
are -1 together with -(e|b| + e'|a|) / l for each finite factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple

from .mpoly import Polynomial, direct_sum
from .newton import NewtonPolyhedron, build_polyhedron
from . import noncrit

IntVec = Tuple[int, ...]


class _MinusInfinity:
    """Degenerate affine exponent: the pair contributes no factor."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MINUS_INFINITY"


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class AffineExponent:
    """Exponent c(s) = -(q_power) - t_power * s, encoded as the factor
    1 - q^{-q_power} t^{t_power}."""

    t_power: int
    q_power: int

    def __post_init__(self):
        if self.t_power < 1 or self.q_power < 1:
            raise ValueError("affine exponent powers must be positive")

    def pole(self) -> Fraction:
        return Fraction(-self.q_power, self.t_power)


def pair_factor(m_f: int, m_g: int, abs_a: int, abs_b: int):
    """The factor exponent for facet weights (m_f, m_g) and coordinate
    sums |a|, |b| of the primitive normals.

    Returns MINUS_INFINITY when either weight vanishes.
    """
    if m_f < 0 or m_g < 0:
        raise ValueError("facet weights are naturals")
    if abs_a < 1 or abs_b < 1:
        raise ValueError("|a| and |b| are positive for primitive normals")
    if m_f == 0 or m_g == 0:
        return MINUS_INFINITY
    g = gcd(m_f, m_g)
    e = m_f // g
    e_prime = m_g // g
    return AffineExponent(t_power=lcm(m_f, m_g), q_power=e * abs_b + e_prime * abs_a)


@dataclass(frozen=True)
class PairFactor:
    a: IntVec
    b: IntVec
    m_f: int
    m_g: int
    exponent: object  # AffineExponent or MINUS_INFINITY

    @property
    def inert(self) -> bool:
        return self.exponent is MINUS_INFINITY


@dataclass(frozen=True)
class CandidatePoleSet:
    """Real parts of candidate poles; always contains -1."""

    poles: frozenset

    def sorted(self) -> List[Fraction]:
        return sorted(self.poles)

    def as_strings(self) -> List[str]:
        return [str(p) for p in self.sorted()]


@dataclass(frozen=True)
class Denominator:
    """Factored denominator of Z(f + g; s) in t = q^{-s}.

    ``universal`` is the factor 1 - q^{-1} t.  ``pairs`` lists one
    entry per facet pair, inert ones included for transparency.
    """

    universal: AffineExponent
    pairs: Tuple[PairFactor, ...]
    noncrit_warnings: Tuple[str, ...]

    def factors(self) -> List[Tuple[int, int]]:
        """(q_power, t_power) for the universal and all finite factors."""
        out = [(self.universal.q_power, self.universal.t_power)]
        out.extend(
            (p.exponent.q_power, p.exponent.t_power)
            for p in self.pairs
            if not p.inert
        )
        return out

    def candidate_poles(self) -> CandidatePoleSet:
        poles = {Fraction(-1)}
        for p in self.pairs:
            if not p.inert:
                poles.add(p.exponent.pole())
        return CandidatePoleSet(frozenset(poles))

    def as_dict(self) -> dict:
        return {
            "universal": {"qpow": self.universal.q_power, "tpow": self.universal.t_power},
            "factors": [
                {
                    "a": list(p.a),
                    "b": list(p.b),
                    "qpow": p.exponent.q_power if not p.inert else None,
                    "tpow": p.exponent.t_power if not p.inert else None,
                    "inert": p.inert,
                }
                for p in self.pairs
            ],
            "poles": self.candidate_poles().as_strings(),
            "warnings": list(self.noncrit_warnings),
        }


def denominator(
    f: Polynomial,
    g: Polynomial,
    check_mode: Optional[str] = None,
    newton_f: Optional[NewtonPolyhedron] = None,
    newton_g: Optional[NewtonPolyhedron] = None,
) -> Denominator:
    """Assemble the factored denominator for the direct sum f + g.

    Variables of f and g must be disjoint (checked by forming the sum).
    When check_mode is given ("exact_small" or "finite_field_heuristic"),
    each summand is tested for Newton non-criticality and any
    uncertified verdict becomes a warning on the result; the factors are
    produced either way.
    """
    direct_sum(f, g)  # raises on variable collision
    nf = newton_f if newton_f is not None else build_polyhedron(f)
    ng = newton_g if newton_g is not None else build_polyhedron(g)
    warnings = []
    if check_mode is not None:
        for name, poly, newton in (("f", f, nf), ("g", g, ng)):
            report = noncrit.check_noncritical(poly, mode=check_mode, polyhedron=newton)
            if report.verdict != "non_critical":
                warnings.append(
                    f"{name} = {poly} is not certified Newton non-critical "
                    f"(verdict: {report.verdict}); the factored denominator "
                    "is still the generic one"
                )
    pairs = []
    for fa in nf.facets:
        for fb in ng.facets:
            exponent = pair_factor(fa.m, fb.m, sum(fa.normal), sum(fb.normal))
            pairs.append(PairFactor(fa.normal, fb.normal, fa.m, fb.m, exponent))
    return Denominator(AffineExponent(1, 1), tuple(pairs), tuple(warnings))


def candidate_poles(f: Polynomial, g: Polynomial) -> CandidatePoleSet:
    return denominator(f, g).candidate_poles()
