"""Denominator of the zeta function of a direct sum f(x) + g(y).

For facet normals a of the Newton polyhedron of f and b of that of g,
with positive facet weights m_f(a) and m_g(b), put

    l  = lcm(m_f(a), m_g(b)),
    e  = m_f(a) / gcd(m_f(a), m_g(b)),
    e' = m_g(b) / gcd(m_f(a), m_g(b)).

The pair contributes the factor 1 - q^{-(e|b| + e'|a|)} t^l with
t = q^{-s}, kept as ratfun's pair (A, B) = (e|b| + e'|a|, l); pairs
where either weight is 0 contribute no factor and are reported as
inert.  The full denominator is the universal factor (1, 1), that is
1 - q^{-1} t, times the product over all facet pairs, and the candidate
poles of the quotient are -A/B over its factors, -1 among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple

from .mpoly import Polynomial, direct_sum
from .newton import NewtonPolyhedron, build_polyhedron
from .ratfun import Factor, poles

IntVec = Tuple[int, ...]


def pair_factor(m_f: int, m_g: int, abs_a: int, abs_b: int) -> Optional[Factor]:
    """The factor (A, B) for facet weights (m_f, m_g) and coordinate
    sums |a|, |b| of the primitive normals.

    Returns None, an inert pair, when either weight vanishes.
    """
    if m_f < 0 or m_g < 0:
        raise ValueError("facet weights are naturals")
    if abs_a < 1 or abs_b < 1:
        raise ValueError("|a| and |b| are positive for primitive normals")
    if m_f == 0 or m_g == 0:
        return None
    g = gcd(m_f, m_g)
    e, e_prime = m_f // g, m_g // g
    return (e * abs_b + e_prime * abs_a, lcm(m_f, m_g))


@dataclass(frozen=True)
class Denominator:
    """Factored denominator of Z(f + g; s) in t = q^{-s}.

    ``pairs`` holds one (a, b, factor) per pair of facet normals, inert
    ones included for transparency with factor None.
    """

    pairs: Tuple[Tuple[IntVec, IntVec, Optional[Factor]], ...]

    def factors(self) -> List[Factor]:
        """The universal factor (1, 1), then the factor of each non-inert pair."""
        return [(1, 1)] + [fac for _, _, fac in self.pairs if fac is not None]

    def candidate_poles(self) -> Tuple[Fraction, ...]:
        return poles(self.factors())

    def as_dict(self) -> dict:
        return {
            "universal": {"qpow": 1, "tpow": 1},
            "factors": [
                {
                    "a": list(a),
                    "b": list(b),
                    "qpow": None if fac is None else fac[0],
                    "tpow": None if fac is None else fac[1],
                    "inert": fac is None,
                }
                for a, b, fac in self.pairs
            ],
            "poles": [str(x) for x in self.candidate_poles()],
            # schema 1 keeps the key; no non-criticality check runs here
            "warnings": [],
        }


def denominator(
    f: Polynomial, g: Polynomial, newton_f: Optional[NewtonPolyhedron] = None
) -> Denominator:
    """Assemble the factored denominator for the direct sum f + g.

    Variables of f and g must be disjoint (checked by forming the sum).
    The factors are the generic ones: neither summand is tested for
    Newton non-criticality.
    """
    direct_sum(f, g)  # raises on variable collision
    nf = newton_f if newton_f is not None else build_polyhedron(f)
    ng = build_polyhedron(g)
    return Denominator(tuple(
        (fa.normal, fb.normal, pair_factor(fa.m, fb.m, sum(fa.normal), sum(fb.normal)))
        for fa in nf.facets
        for fb in ng.facets
    ))
