"""Subtractive (Euclid-style) orbit of a pair of positive integers.

The step map phi fixes a base pair (c, d) and sends a state (s, t) to

* (c, d)      when s = t  (reset),
* (s - t, d)  when s > t,
* (c, t - s)  when s < t.

Starting from (c, d) the orbit is periodic with period
e + e' - 1 where e = c/gcd(c, d) and e' = d/gcd(c, d).  Two exact sum
identities over one period drive the denominator bookkeeping
downstream: the per-step minima sum to lcm(c, d), and weighted picks
sum to e * d_weight + e' * c_weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Tuple

from .mpoly import MAX_EXPONENT

State = Tuple[int, int]


def step(state: State, base: State) -> State:
    """One application of the subtractive map with base pair (c, d)."""
    s, t = state
    c, d = base
    if s < 1 or t < 1 or c < 1 or d < 1:
        raise ValueError("states and base must be positive")
    if s == t:
        return (c, d)
    if s > t:
        return (s - t, d)
    return (c, t - s)


@dataclass(frozen=True)
class Orbit:
    """The periodic orbit of (c, d): states k = 1 .. period + 1.

    states[0] is (c, d) and states[period] equals it again; the list
    length is period + 1.
    """

    c: int
    d: int
    period: int
    states: Tuple[State, ...]

    @property
    def e(self) -> int:
        return self.c // gcd(self.c, self.d)

    @property
    def e_prime(self) -> int:
        return self.d // gcd(self.c, self.d)


def orbit(c: int, d: int) -> Orbit:
    """Iterate the step map from (c, d) through one full period."""
    if c < 1 or d < 1:
        raise ValueError("base pair must be positive")
    if max(c, d) > MAX_EXPONENT:  # the orbit holds up to 2 * MAX_EXPONENT states
        raise ValueError(f"base pair ({c}, {d}) exceeds the limit {MAX_EXPONENT}")
    g = gcd(c, d)
    period = c // g + d // g - 1
    states: List[State] = [(c, d)]
    for _ in range(period):
        states.append(step(states[-1], (c, d)))
    if states[-1] != (c, d):
        raise AssertionError(f"orbit of ({c},{d}) failed to close after {period} steps")
    return Orbit(c, d, period, tuple(states))


@dataclass(frozen=True)
class WeightSums:
    """Per-step minima and weighted picks over one period.

    For k = 2 .. period+1 (i.e. states after the first):
    * min_k = min(c_k, d_k);
    * pick_k = c_weight + d_weight on a tie, d_weight when c_k > d_k,
      c_weight when c_k < d_k.

    Exactly: sum(mins) = lcm(c, d) and
    sum(picks) = e * d_weight + e' * c_weight.
    """

    mins: Tuple[int, ...]
    picks: Tuple[int, ...]
    min_sum: int
    pick_sum: int


def weight_sums(orb: Orbit, c_weight: int, d_weight: int) -> WeightSums:
    if c_weight < 0 or d_weight < 0:
        raise ValueError("weights must be naturals")
    mins = []
    picks = []
    for ck, dk in orb.states[1:]:
        mins.append(min(ck, dk))
        if ck == dk:
            picks.append(c_weight + d_weight)
        elif ck > dk:
            picks.append(d_weight)
        else:
            picks.append(c_weight)
    return WeightSums(tuple(mins), tuple(picks), sum(mins), sum(picks))
