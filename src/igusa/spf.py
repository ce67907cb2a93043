"""Stationary-phase evaluation of p-adic integrals over residue grids.

Here Z_D(s) = integral over D of |f(x)|^s |dx|, where D is Z_p^n or its
unit torus (Z_p^x)^n: the preimage of the grid {low..p-1}^n of residues
in (F_p)^n, low = 0 or 1.  Classifying the grid into points where the
reduction fbar is nonzero (measure nu), smooth zeros (measure sigma), and
singular zeros gives the expansion

    Z_D = nu + sigma * (1 - 1/q) * t / (1 - t/q)
        + sum over singular lifts P of q^(-n) * t^(e_P) * Z(f_P)

with t = q^(-s) and f(P + p x) = p^(e_P) f_P(x).  Each Z(f_P) is over
all of Z_p^n, so only the root can be on the torus.  Recursing on the
singular lifts terminates exactly when f has no singular point inside
D, and the result is a rational function with the single denominator
factor (1 - t/q).  ``spf_evaluate`` runs the recursion, and its trace
keeps each node's counts.  The classification, ``_grid_counts``, is
vectorised: one call of ``mpoly._classify`` on the terms of fbar and the
axes of ``mpoly.residue_axes``.  It reads fbar alone, so within one
evaluation the nodes with the same reduction mod p on the same grid share
one classification: a chain of singular lifts whose reductions repeat
scans its residues once.  A node below the root is a term map, its terms in
graded-lex order, lifted by the exact kernel ``mpoly._lift`` on one table
of binomial rows per evaluation; each node's numerator is Python ints
over one power of q, and ``Fraction``s are built once, at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

from .mpoly import DEPTH_GUARD, MAX_LIFTS, Monomial, Polynomial, _classify, _lift
from .mpoly import _term_sort_key, residue_axes
from .numeric import check_prime, p_valuation
from .ratfun import RationalZeta


class DepthGuardExceeded(RuntimeError):
    """The SPF recursion did not terminate within the depth guard."""


# ---------------------------------------------------------------------------
# counts


@dataclass(frozen=True)
class SPFCounts:
    """Measure-weighted classification of a residue set under fbar."""

    nu: Fraction
    sigma: Fraction
    singular: Tuple[Tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {
            "nu": str(self.nu),
            "sigma": str(self.sigma),
            "singular": [list(pt) for pt in self.singular],
        }


def _grid_counts(reduced: Sequence[Tuple[Monomial, int]], q: int, n: int, low: int):
    """(counts, (a, b)) for the terms mod q, each nonzero mod q, of a node on
    the grid {low..q-1}^n: its ``SPFCounts`` and the node's own numerator
    coefficients nu and sigma (1 - 1/q) - nu/q as the ints a, b over q^(n+1).

    The counts classify every residue of the grid, {0..q-1}^n or its torus
    {1..q-1}^n, into nonzero / smooth zero / singular zero: nu and sigma
    are the Haar measures of the first two classes, and the singular zeros
    are their canonical lifts in {0..q-1}^n, in sorted order.  One
    ``_classify`` pass over the grid's axes does it; ``residue_axes``
    refuses an oversized grid before building it."""
    import numpy as np

    values, critical = _classify(reduced, residue_axes(q, n, low), q)
    zero = values == 0
    nonzero, smooth = int((~zero).sum()), int((zero & ~critical).sum())
    singular = tuple(map(tuple, (np.argwhere(zero & critical) + low).tolist()))
    counts = SPFCounts(Fraction(nonzero, q**n), Fraction(smooth, q**n), singular)
    return counts, (nonzero * q, smooth * (q - 1) - nonzero)


# ---------------------------------------------------------------------------
# recursive evaluation


@dataclass(frozen=True)
class SPFTraceNode:
    """One recursion node: the singular-lift path that led here and its data."""

    path: Tuple[Tuple[int, ...], ...]
    order_e: int  # e-value of the last shift (0 at the root)
    cumulative_E: int  # sum of e-values along the path
    counts: SPFCounts
    memoized: bool
    children: Tuple["SPFTraceNode", ...]

    def as_dict(self) -> dict:
        return {
            "path": [list(pt) for pt in self.path],
            "order_e": self.order_e,
            "cumulative_E": self.cumulative_E,
            "counts": self.counts.as_dict(),
            "memoized": self.memoized,
            "children": [c.as_dict() for c in self.children],
        }


@dataclass(frozen=True)
class SPFTrace:
    root: SPFTraceNode

    def as_dict(self) -> dict:
        return self.root.as_dict()


@dataclass(frozen=True)
class SPFEvaluation:
    zeta: RationalZeta
    trace: SPFTrace


def _path_str(path: Sequence[Tuple[int, ...]]) -> str:
    return " -> ".join(str(tuple(pt)) for pt in path) if path else "(root)"


def _lift_node(terms: Sequence[Tuple[Monomial, int]], point: Tuple[int, ...], q: int,
               rows: dict) -> Tuple[int, tuple]:
    """(d, g) with f(P + p x) = p^d g(x), g of p-unit content, for the f
    with these terms: g's nonzero terms in graded-lex order.  The lift is
    ``_lift``'s exact one on the binomial rows ``rows``; d is the
    valuation of base + p^e h, e when p^e divides base (h is not 0)."""
    base, e, h = _lift(terms, point, q, None, rows)
    d = e if h and base % q**e == 0 else p_valuation(base, q)
    scale = q ** (e - d)
    child = [(mono, h[mono] * scale) for mono in sorted(h, key=_term_sort_key)]
    if base:
        child.insert(0, ((0,) * len(point), base // q**d))
    return d, tuple(child)


def spf_evaluate(
    f: Polynomial,
    p: int,
    torus: bool = False,
    depth_guard: int = DEPTH_GUARD,
) -> SPFEvaluation:
    """Exact rational value of the integral of |f|^s |dx| over Z_p^n, or
    over the unit torus when ``torus``.

    Recursion terminates iff every singular-lift path eventually reaches
    a polynomial whose reduction has no singular zero on the relevant
    residues; a path exceeding depth_guard, or revisiting a polynomial
    already on the active stack (self-similar recursion), raises
    DepthGuardExceeded naming the offending path — the signature of a
    singular point of f inside the domain.  A depth_guard outside
    0..MAX_LIFTS is refused with ValueError: each lift holds a frame.

    The root classifies the grid {low..p-1}^n, low = 1 on the torus, and
    every lift the full grid, so the keys below record ``low``.  A grid
    over the residue limit is refused, with ValueError, by
    ``residue_axes`` when a node first scans it: on the torus the full
    grid's limit binds only when a lift needs it.  A node is the tuple of
    its terms in graded-lex order, keyed with ``low``, and its lifts are
    ``_lift_node`` on one table of binomial rows for the call.  Each node
    classifies its residues by ``_grid_counts`` only when no earlier node
    of this call had the same reduction mod p and grid; the classification
    is shared, never kept beyond the call.  A node's numerator is (ints,
    k), the ints over q^k; a child's joins it times q^(k - k_child - n),
    and the root's becomes ``Fraction``s.
    """
    check_prime(p)
    n = f.nvars
    low = int(torus)
    if n < 1:
        raise ValueError("domain dimension must be >= 1")
    if f.is_zero():
        raise ValueError("the zero polynomial has no finite |f|^s integral")
    if not 0 <= depth_guard <= MAX_LIFTS:
        raise ValueError(f"depth_guard must be in 0..{MAX_LIFTS}, got {depth_guard}")
    memo: Dict[tuple, Tuple[List[int], int, SPFCounts]] = {}  # (terms, low) -> numerator
    classified: Dict[tuple, tuple] = {}  # (reduction, low) -> _grid_counts
    on_stack: Set[tuple] = set()
    rows: dict = {}  # the binomial rows of every lift of this call

    def node(
        terms: tuple,
        low: int,
        path: Tuple[Tuple[int, ...], ...],
        order_e: int,
        cumulative_E: int,
    ) -> Tuple[List[int], int, SPFTraceNode]:
        key = (terms, low)
        if key in memo:
            ints, k, counts = memo[key]
            return ints, k, SPFTraceNode(path, order_e, cumulative_E, counts, True, ())
        if key in on_stack:
            raise DepthGuardExceeded(
                f"self-similar recursion at path {_path_str(path)}: the scaled "
                "polynomial repeats, so f has a singular point in the domain"
            )
        if len(path) > depth_guard:
            raise DepthGuardExceeded(
                f"recursion depth {len(path)} exceeds depth_guard={depth_guard} "
                f"at path {_path_str(path)}"
            )
        on_stack.add(key)
        reduction = (tuple((mono, c % p) for mono, c in terms if c % p), low)
        found = classified.get(reduction)
        if found is None:
            found = classified[reduction] = _grid_counts(reduction[0], p, n, low)
        counts, own = found
        lifts = []  # (e, ints, k) of each singular lift, in order
        children = []
        for P in counts.singular:
            e, child_terms = _lift_node(terms, P, p, rows)
            child_ints, child_k, child_node = node(child_terms, 0, path + (P,), e, cumulative_E + e)
            lifts.append((e, child_ints, child_k))
            children.append(child_node)
        on_stack.remove(key)
        # built once the lifts return, so a depth-guard exit builds none
        k = max([n + 1] + [child_k + n for _, _, child_k in lifts])
        shift = p ** (k - n - 1)
        ints = [own[0] * shift, own[1] * shift]
        for e, child_ints, child_k in lifts:
            need = e + len(child_ints)
            if len(ints) < need:
                ints.extend([0] * (need - len(ints)))
            factor = p ** (k - child_k - n)
            for m, c in enumerate(child_ints, e):
                ints[m] += c * factor
        memo[key] = (ints, k, counts)
        return ints, k, SPFTraceNode(path, order_e, cumulative_E, counts, False, tuple(children))

    terms = tuple(sorted(f.terms.items(), key=lambda term: _term_sort_key(term[0])))
    ints, k, root = node(terms, low, (), 0, 0)
    denominator = p**k
    zeta = RationalZeta(numerator=tuple(Fraction(c, denominator) for c in ints),
                        denominator_factors=((1, 1),), q=p)
    return SPFEvaluation(zeta=zeta, trace=SPFTrace(root))
