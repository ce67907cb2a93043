"""Exact arithmetic primitives: primes and p-adic valuations.

All arithmetic in this package is exact.  Rational numbers are
``fractions.Fraction`` (always in lowest terms with positive
denominator) and integers are Python's arbitrary-precision ``int``.
Floating point is never used.

A p-adic valuation is an ``int`` and is taken of nonzero integers only:
``p_valuation`` refuses 0 rather than return an infinite state.
"""

from __future__ import annotations

# node budget of oracle's value-ball counter, kept here for the CLI to show without numpy
DEFAULT_BUDGET = 10**8


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


def check_prime(p) -> None:
    """Refuse p unless it is an int prime below 2^64, the range that
    ``_is_prime`` decides; the residue field size q equals p throughout."""
    if isinstance(p, int) and p >= 2**64:
        raise ValueError(f"primality is decided for p < 2^64 only, got {p}")
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"not a prime: {p!r}")


def p_valuation(x: int, p: int) -> int:
    """The exponent of p in the nonzero integer x.

    x = 0 has no finite valuation and raises ValueError.  p is not tested
    for primality here: ``check_prime`` checks it where it enters the library.
    """
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, got {p!r}")
    if x == 0:
        raise ValueError("0 has no finite p-adic valuation")
    if x % p:
        return 0
    # the squares p^(2^i) that divide x, divided out largest first: about
    # 2 log2(v) divisions where dividing by p one at a time takes v
    powers = [p]
    while x % (square := powers[-1] * powers[-1]) == 0:
        powers.append(square)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        quotient, rest = divmod(x, powers[i])
        if not rest:
            x = quotient
            v += 1 << i
    return v
