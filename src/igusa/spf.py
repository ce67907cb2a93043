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
factor (1 - t/q).  The classification is vectorised: one call of
``mpoly.classify_mod_p`` on the axes of ``mpoly.residue_axes``.
It reads fbar alone, so within one evaluation the nodes whose
polynomials have the same reduction mod p (``mpoly.reduction_key``) on
the same grid share one classification: a chain of singular lifts
whose reductions repeat scans its residues once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

from .mpoly import MAX_LIFTS, RESIDUE_LIMIT, Polynomial, classify_mod_p, reduction_key, residue_axes
from .mpoly import shift_scale
from .numeric import PrimeSpec
from .ratfun import RationalZeta


class DepthGuardExceeded(RuntimeError):
    """The SPF recursion did not terminate within the depth guard."""


def _refuse_grid(p: int, n: int, low: int):
    """Refuse the grid {low..p-1}^n when it has no coordinates or more
    than RESIDUE_LIMIT residues; a size check that builds nothing."""
    if n < 1:
        raise ValueError("domain dimension must be >= 1")
    size = (p - low) ** n
    if size > RESIDUE_LIMIT:
        raise ValueError(
            f"a residue domain of dimension {n} mod {p} has {p - low}^{n} = {size} "
            f"residues, over the limit of {RESIDUE_LIMIT}"
        )


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


def spf_counts(f: Polynomial, p: PrimeSpec, torus: bool = False) -> SPFCounts:
    """Classify every residue of {0..p-1}^n, or of its torus {1..p-1}^n,
    into nonzero / smooth zero / singular zero.

    nu and sigma are the Haar measures of the first two classes; the
    singular zeros are returned as their canonical lifts in {0..p-1}^n,
    in sorted order.  One ``classify_mod_p`` pass over the grid's axes
    does it, after ``_refuse_grid``.
    """
    import numpy as np

    low = int(torus)
    _refuse_grid(p.p, f.nvars, low)
    values, critical = classify_mod_p(f, residue_axes(p.p, f.nvars, low), p.p)
    zero = values == 0
    scale = Fraction(1, p.p**f.nvars)
    return SPFCounts(
        nu=int((~zero).sum()) * scale,
        sigma=int((zero & ~critical).sum()) * scale,
        singular=tuple(map(tuple, (np.argwhere(zero & critical) + low).tolist())),
    )


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


def spf_evaluate(
    f: Polynomial,
    p: PrimeSpec,
    torus: bool = False,
    depth_guard: int = 32,
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
    every lift the full grid, so the keys below record ``low``.  The
    root grid's size limit is checked first; on the torus the full
    grid's is checked once the root has a singular lift, so it binds
    only when a lift needs it.  Each node classifies its residues by
    ``spf_counts`` only when no earlier node of this call had the same
    reduction mod p and grid; the classification is shared, never kept
    beyond the call.
    """
    q = p.p
    n = f.nvars
    low = int(torus)
    _refuse_grid(p.p, n, low)
    if f.is_zero():
        raise ValueError("the zero polynomial has no finite |f|^s integral")
    if not 0 <= depth_guard <= MAX_LIFTS:
        raise ValueError(f"depth_guard must be in 0..{MAX_LIFTS}, got {depth_guard}")
    memo: Dict[tuple, Tuple[Tuple[Fraction, ...], SPFCounts]] = {}
    classified: Dict[tuple, SPFCounts] = {}  # (reduction_key, low) -> counts
    on_stack: Set[tuple] = set()
    inv_q, scale = Fraction(1, q), Fraction(1, q**n)

    def node(
        g: Polynomial,
        low: int,
        path: Tuple[Tuple[int, ...], ...],
        order_e: int,
        cumulative_E: int,
    ) -> Tuple[Tuple[Fraction, ...], SPFTraceNode]:
        key = (g.canonical_key(), low)
        if key in memo:
            num, counts = memo[key]
            return num, SPFTraceNode(path, order_e, cumulative_E, counts, True, ())
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
        try:
            reduction = (reduction_key(g, p.p), low)
            counts = classified.get(reduction)
            if counts is None:
                counts = classified[reduction] = spf_counts(g, p, bool(low))
            if counts.singular and low:
                _refuse_grid(p.p, n, 0)  # the torus root's lifts scan the full grid
            lifts = []  # (e, numerator) of each singular lift, in order
            children = []
            for P in counts.singular:
                e, g_child = shift_scale(g, P, p.p)
                child_num, child_node = node(g_child, 0, path + (P,), e, cumulative_E + e)
                lifts.append((e, child_num))
                children.append(child_node)
        finally:
            on_stack.remove(key)
        # built once the lifts return, so a depth-guard exit builds none
        numerator: List[Fraction] = [counts.nu, counts.sigma * (1 - inv_q) - counts.nu * inv_q]
        for e, child_num in lifts:
            need = e + len(child_num)
            if len(numerator) < need:
                numerator.extend([Fraction(0)] * (need - len(numerator)))
            for m, c in enumerate(child_num):
                numerator[e + m] += scale * c
        num = tuple(numerator)
        memo[key] = (num, counts)
        return num, SPFTraceNode(path, order_e, cumulative_E, counts, False, tuple(children))

    numerator, root = node(f, low, (), 0, 0)
    zeta = RationalZeta(numerator=numerator, denominator_factors=((1, 1),), q=q)
    return SPFEvaluation(zeta=zeta, trace=SPFTrace(root))
