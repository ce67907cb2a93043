"""Exact arithmetic primitives: primes and p-adic valuations.

All arithmetic in this package is exact.  Rational numbers are
``fractions.Fraction`` (always in lowest terms with positive
denominator) and integers are Python's arbitrary-precision ``int``.
Floating point is never used.

The p-adic valuation of 0 is a distinct infinite state ``INFINITE``,
not a sentinel integer; it compares greater than every integer and
absorbs addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class _Infinite:
    """The +infinity valuation.  A singleton; compare against ints freely."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("igusa-infinite-valuation")

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

# node budget of oracle's counters, kept here for the CLI to show without numpy
DEFAULT_BUDGET = 10**8

Valuation = Union[int, _Infinite]


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all 64-bit inputs."""
    if p < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % small == 0:
            return p == small
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeSpec:
    """A prime p; the residue field size q equals p throughout."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise ValueError(f"not a prime: {self.p!r}")

    @property
    def q(self) -> int:
        return self.p


def p_valuation(x: Union[int, Fraction], p: int) -> Valuation:
    """The exponent of p in x; INFINITE for x = 0.

    Accepts integers and Fractions (valuation of a quotient is the
    difference of the valuations).  p is not tested for primality here:
    ``PrimeSpec`` checks it where it enters the program.
    """
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, got {p!r}")
    if isinstance(x, Fraction):
        if x == 0:
            return INFINITE
        return p_valuation(x.numerator, p) - p_valuation(x.denominator, p)
    if x == 0:
        return INFINITE
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def valuation_min(values) -> Valuation:
    """Minimum of a collection of valuations (INFINITE if all infinite)."""
    best: Valuation = INFINITE
    for v in values:
        if v is INFINITE:
            continue
        if best is INFINITE or v < best:
            best = v
    return best
