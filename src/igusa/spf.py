"""Stationary-phase evaluation of p-adic integrals over residue domains.

Here Z_D(s) = integral over D of |f(x)|^s |dx|, where D is the preimage
in Z_p^n of a residue set Dbar in (F_p)^n.  Classifying Dbar into
points where the reduction fbar is nonzero (measure nu), smooth zeros
(measure sigma), and singular zeros gives the expansion

    Z_D = nu + sigma * (1 - 1/q) * t / (1 - t/q)
        + sum over singular lifts P of q^(-n) * t^(e_P) * Z(f_P)

with t = q^(-s) and f(P + p x) = p^(e_P) f_P(x).  Recursing on the
singular lifts terminates exactly when f has no singular point inside
D, and the result is a rational function with the single denominator
factor (1 - t/q).  The classification of Dbar is vectorised: one call of
``mpoly.classify_mod_p`` over the sorted residue array of the domain.
It reads fbar alone, so within one evaluation the nodes whose
polynomials have the same reduction mod p (``mpoly.reduction_key``) on
the same domain share one classification: a chain of singular lifts
whose reductions repeat scans its residues once.

``sup_bound`` walks the same residue tree depth-first with an explicit
closure rule, and certifies finite suprema over D of the pointwise
orders L(f, P) (the least order of f and its partials at P) and
ell(f, P) (of the partials only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Tuple

from .mpoly import RESIDUE_LIMIT, Polynomial, classify_mod_p, reduction_key, residue_dtype
from .mpoly import residue_grid, shift_scale
from .numeric import INFINITE, PrimeSpec, p_valuation
from .ratfun import RationalZeta

if TYPE_CHECKING:
    import numpy as np


class DepthGuardExceeded(RuntimeError):
    """The SPF recursion did not terminate within the depth guard."""


class BoundNotCertified(RuntimeError):
    """A residue-tree branch stayed open at max_depth; the supremum may be infinite."""


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True, eq=False)
class ResidueDomain:
    """Preimage in Z_p^n of an explicit residue set in (F_p)^n.

    The residues are the sorted, distinct rows of an array, which
    ``spf_counts`` classifies; ``full``, ``unit_torus`` and ``of`` build
    them so.
    """

    p: int
    dim: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.rows.flags.writeable = False

    @classmethod
    def full(cls, p: int, dim: int) -> "ResidueDomain":
        return cls._grid(p, dim, 0)

    @classmethod
    def unit_torus(cls, p: int, dim: int) -> "ResidueDomain":
        return cls._grid(p, dim, 1)

    @classmethod
    def _grid(cls, p: int, dim: int, low: int) -> "ResidueDomain":
        """{low..p-1}^dim, after refusing more than RESIDUE_LIMIT residues."""
        if dim < 1:
            raise ValueError("domain dimension must be >= 1")
        size = (p - low) ** dim
        if size > RESIDUE_LIMIT:
            raise ValueError(
                f"a residue domain of dimension {dim} mod {p} has {p - low}^{dim} = {size} "
                f"residues, over the limit of {RESIDUE_LIMIT}"
            )
        return cls(p, dim, residue_grid(p, dim, low))

    @classmethod
    def of(cls, p: int, residues: Sequence[Sequence[int]]) -> "ResidueDomain":
        import numpy as np

        pts = [tuple(r) for r in residues]
        if not pts:
            raise ValueError("explicit residue domain must be nonempty")
        dim = len(pts[0])
        if dim < 1:
            raise ValueError("domain dimension must be >= 1")
        listed = sorted(set(pts))
        if set(map(len, listed)) - {dim}:
            r = next(tuple(int(c) for c in r) for r in listed if len(r) != dim)
            raise ValueError(f"residue {r} has wrong arity (dim {dim})")
        rows = np.array(listed, dtype=residue_dtype(p)).reshape(-1, dim)
        outside = ((rows < 0) | (rows >= p)).any(axis=1)
        if outside.any():
            r = tuple(rows[outside][0].tolist())
            raise ValueError(f"residue {r} outside {{0..{p - 1}}}^{dim}")
        return cls(p, dim, rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def residues(self) -> FrozenSet[Tuple[int, ...]]:
        return frozenset(map(tuple, self.rows.tolist()))


def _require_matching_prime(D: ResidueDomain, p: PrimeSpec):
    if D.p != p.p:
        raise ValueError(f"domain is mod {D.p} but evaluation prime is {p.p}")


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


def spf_counts(f: Polynomial, D: ResidueDomain, p: PrimeSpec) -> SPFCounts:
    """Classify every residue of D into nonzero / smooth zero / singular zero.

    nu and sigma are the Haar measures of the first two classes; the
    singular zeros are returned as their canonical lifts in {0..p-1}^n,
    in sorted order.  One ``classify_mod_p`` pass over D's rows does it.
    """
    _require_matching_prime(D, p)
    if f.nvars != D.dim:
        raise ValueError(f"f has {f.nvars} variables but domain dimension is {D.dim}")
    values, critical = classify_mod_p(f, D.rows, p.p)
    zero = values == 0
    scale = Fraction(1, p.q**D.dim)
    return SPFCounts(
        nu=int((~zero).sum()) * scale,
        sigma=int((zero & ~critical).sum()) * scale,
        singular=tuple(map(tuple, D.rows[zero & critical].tolist())),
    )


# ---------------------------------------------------------------------------
# pointwise orders


def _orders_at(polys: Sequence[Polynomial], P: Sequence[int], p: PrimeSpec):
    return [p_valuation(g.evaluate(tuple(P)), p.p) for g in polys]


def sup_bound(
    f: Polynomial,
    D: ResidueDomain,
    p: PrimeSpec,
    mode: str,
    max_depth: int = 16,
) -> int:
    """Certified supremum of L(f, .) (mode "L") or ell(f, .) (mode "ell") on D.

    The residue tree refines D into cosets a + p^j Z_p^n.  On such a
    coset every listed polynomial g satisfies v(g(x)) = v(g(a)) whenever
    v(g(a)) < j, so once min_g v(g(a)) < j the pointwise minimum is
    constant on the branch and the branch closes with that value.
    Branches still open at max_depth abort the certificate: the
    supremum may be finite but larger, or genuinely infinite (a
    singular/critical point inside D).
    """
    _require_matching_prime(D, p)
    if f.nvars != D.dim:
        raise ValueError(f"f has {f.nvars} variables but domain dimension is {D.dim}")
    if mode == "L":
        polys = (f, *f.partials())
    elif mode == "ell":
        polys = f.partials()
    else:
        raise ValueError(f"mode must be 'L' or 'ell', got {mode!r}")
    if all(g.is_zero() for g in polys):
        raise ValueError("all listed polynomials vanish identically; supremum is infinite")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    best = 0
    stack: List[Tuple[Tuple[int, ...], int]] = [(r, 1) for r in sorted(D.residues)]
    while stack:
        point, depth = stack.pop()
        vals = [v for v in _orders_at(polys, point, p) if v is not INFINITE]
        closed = bool(vals) and min(vals) < depth
        if closed:
            best = max(best, min(vals))
            continue
        if depth >= max_depth:
            raise BoundNotCertified(
                f"branch {point} (mod {p.p}^{depth}) is still open at max_depth="
                f"{max_depth}; sup {mode} on this branch is >= {depth}"
            )
        step = p.p**depth
        for offset in itertools.product(range(p.p), repeat=D.dim):
            child = tuple(a + step * o for a, o in zip(point, offset))
            stack.append((child, depth + 1))
    return best


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

    @property
    def depth(self) -> int:
        def walk(node):
            return 1 + max((walk(c) for c in node.children), default=0)

        return walk(self.root)

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
    D: ResidueDomain,
    p: PrimeSpec,
    depth_guard: int = 32,
) -> SPFEvaluation:
    """Exact rational value of the integral over D of |f|^s |dx|.

    Recursion terminates iff every singular-lift path eventually reaches
    a polynomial whose reduction has no singular zero on the relevant
    residues; a path exceeding depth_guard, or revisiting a polynomial
    already on the active stack (self-similar recursion), raises
    DepthGuardExceeded naming the offending path — the signature of a
    singular point of f inside D.

    A node meets either D (the root) or the full domain, so the keys
    below record the domain as ``domain is full``.  Each node classifies
    its residues by ``spf_counts`` only when no earlier node of this call
    had the same reduction mod p and domain; the classification is
    shared, never kept beyond the call.
    """
    _require_matching_prime(D, p)
    if f.nvars != D.dim:
        raise ValueError(f"f has {f.nvars} variables but domain dimension is {D.dim}")
    if f.is_zero():
        raise ValueError("the zero polynomial has no finite |f|^s integral")
    q = p.q
    n = f.nvars
    full = D if D.size == p.q**n else ResidueDomain.full(p.p, n)
    memo: Dict[tuple, Tuple[Tuple[Fraction, ...], SPFCounts]] = {}
    classified: Dict[tuple, SPFCounts] = {}  # (reduction_key, domain is full) -> counts
    on_stack: List[tuple] = []

    def node(
        g: Polynomial,
        domain: ResidueDomain,
        path: Tuple[Tuple[int, ...], ...],
        order_e: int,
        cumulative_E: int,
    ) -> Tuple[Tuple[Fraction, ...], SPFTraceNode]:
        key = (g.canonical_key(), domain is full)
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
        on_stack.append(key)
        try:
            reduction = (reduction_key(g, p.p), domain is full)
            counts = classified.get(reduction)
            if counts is None:
                counts = classified[reduction] = spf_counts(g, domain, p)
            numerator: List[Fraction] = [
                counts.nu,
                counts.sigma * (1 - Fraction(1, q)) - counts.nu * Fraction(1, q),
            ]
            children = []
            for P in counts.singular:
                e, g_child = shift_scale(g, P, p.p)
                child_num, child_node = node(
                    g_child, full, path + (P,), e, cumulative_E + e
                )
                children.append(child_node)
                scale = Fraction(1, q**n)
                need = e + len(child_num)
                if len(numerator) < need:
                    numerator.extend([Fraction(0)] * (need - len(numerator)))
                for m, c in enumerate(child_num):
                    numerator[e + m] += scale * c
        finally:
            on_stack.pop()
        num = tuple(numerator)
        memo[key] = (num, counts)
        return num, SPFTraceNode(path, order_e, cumulative_E, counts, False, tuple(children))

    numerator, root = node(f, D, (), 0, 0)
    zeta = RationalZeta(numerator=numerator, denominator_factors=((1, 1),), q=q)
    return SPFEvaluation(zeta=zeta, trace=SPFTrace(root))
