"""Exact p-adic point counts and end-to-end denominator checks.

``_ball_counter`` makes the one value-ball counter: it pushes the point
count of f mod p^m forward to the values of f, as a list of uniform
balls.  Each residue class mod p is sorted by ``mpoly._classify``.  A
class where some partial derivative is a unit maps uniformly onto one
ball of radius p^-1 (Hensel's lemma, the same shortcut ``spf`` takes),
and a singular class recurses through f(r + p x) - f(r) = p^e h(x), from
the lift kernel ``mpoly._lift``.  A node is a term map taken mod p^m and
divided by a unit (``_normal_form``).
``ball_counts`` splits f into blocks of disjoint variables and adds
their balls up (two uniform balls add to one), its blocks sharing one
memo of nodes; ``igusa count`` runs on it, and so does
``verify_theorem``, whose f(x) + g(y) splits.  The tests tie these counts
to plain lifting and to value balls on exact polynomials, both in
``tests/reference.py``.

The counts are converted to the measure series of Z(f; s), and
``verify_theorem`` checks that the series satisfies the linear
recurrence forced by a claimed factored denominator, recovering the
numerator polynomial.

Counting is exact; the only concession to cost is an explicit node
budget: a node is one normal form and precision met in the recursion
(the blocks share the nodes and the budget), and exceeding it raises
``BudgetExceeded`` naming the block, the class and the precision where
the count stopped; so does a class path of more than ``mpoly.MAX_LIFTS``
nested lifts.  Nodes whose polynomials agree mod p share one scan
of the p^n residue classes mod p, on ``mpoly.residue_axes``, and a scan
of more than ``mpoly.RESIDUE_LIMIT`` residues is refused before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import tsden
from .mpoly import MAX_LIFTS, RESIDUE_LIMIT, Monomial, Polynomial, direct_sum, eval_mod
from .mpoly import _classify, _lift, residue_axes
from .numeric import DEFAULT_BUDGET, check_prime
from .ratfun import Factor, RationalZeta, poles, recover_numerator, reduce_factors


class BudgetExceeded(RuntimeError):
    """A budget (of nodes, or of residues per scan) stopped counting."""


ValueBalls = Dict[Tuple[int, int], int]  # (k, centre mod p^k) -> weight


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class CountSeries:
    """N_m = #{x mod p^m : f(x) = 0 mod p^m} for m = 1..depth, and N_0."""

    f: Polynomial
    p: int
    dim: int
    counts: Tuple[int, ...]  # counts[m-1] = N_m
    n0: int  # N_0: 1 on all of Z_p^n
    nodes_expanded: int

    @property
    def depth(self) -> int:
        return len(self.counts)

    def N(self, m: int) -> int:
        if m == 0:
            return self.n0
        if not 1 <= m <= self.depth:
            raise IndexError(f"N_{m} not computed (depth {self.depth})")
        return self.counts[m - 1]

    def as_dict(self) -> dict:
        return {
            "f": str(self.f),
            "p": self.p,
            "dim": self.dim,
            "counts": list(self.counts),
            # schema 1 keeps these keys: a count over budget raises, and
            # every count is on all of Z_p^n
            "requested_depth": self.depth,
            "truncated": False,
            "nodes_expanded": self.nodes_expanded,
            "domain": None,
        }


def _normal_form(terms: Dict[Monomial, int], p: int, m: int) -> Tuple[int, tuple]:
    """(u, node), g = u * node mod p^m: the nonzero terms mod p^m in graded-lex
    order over u, the first unit mod p among them (else 1).  Exact, since the
    balls of g read g mod p^m, and those of u g are those of g, centres times u."""
    modulus = p**m
    ordered = sorted(terms.items(), key=lambda term: (sum(term[0]), term[0]))
    u = next((c for _, c in ordered if c % p), 1) % modulus
    inverse = pow(u, -1, modulus)
    return u, tuple((mono, r) for mono, c in ordered if (r := c * inverse % modulus))


def _ball_counter(q: int, budget: int):
    """count(f, precision): the values of f on (Z/q^m)^n, m = precision, as
    uniform balls, for blocks on one budget.  The calls share the memo and
    the scans, keyed with the arity: blocks equal up to names and a unit are
    counted once.

    count returns ``(balls, nodes)``.  ``balls`` maps (k, c) with
    1 <= k <= m and 0 <= c < q^k to the number w of points x mod q^m with
    f(x) = c mod q^k; those w points have values mod q^m spread evenly
    over the q^(m-k) residues of c + q^k Z, so q^(m-k) divides w.  The
    weights add up to q^(n m).  ``nodes`` counts the nodes met by all the
    calls so far: one per normal form (``_normal_form``) and precision of
    the recursion.  A node over ``budget`` raises BudgetExceeded, and so do
    a class path of more than ``MAX_LIFTS`` lifts and more than
    ``RESIDUE_LIMIT`` residues mod q, the last before any is scanned; a
    negative budget raises ValueError.

    A node g sorts the q^n residue classes mod q by ``mpoly._classify``,
    which reads g mod q alone, so nodes with one reduction share a scan.
    A class r where some partial is a unit maps onto g(r) + q Z_q
    uniformly (Hensel).  On any other class g(r + q x) - g(r) = q^e h(x)
    with e >= 2, so the class takes the balls of h at precision m - e,
    scaled by q^e and moved to g(r); when e >= m it is one point mod q^m,
    and at m = 1 every class is the ball (1, g(r) mod q).  ``_lift`` keeps
    only the terms below q^m, all that the balls read.
    """
    import numpy as np

    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    memo: Dict[tuple, ValueBalls] = {}  # (n, node, m) -> balls
    scans: Dict[tuple, tuple] = {}  # (n, node mod p, m == 1) -> scan
    rows: Dict[int, dict] = {}  # m -> the binomial rows of ``_lift`` at precision m
    nodes = 0

    def count(f: Polynomial, precision: int) -> Tuple[ValueBalls, int]:
        if precision < 1:
            raise ValueError("precision must be >= 1")
        n = f.nvars
        if q**n > RESIDUE_LIMIT:
            raise BudgetExceeded(
                f"value balls of {f} scan the {q}^{n} = {q**n} residues mod {q}, "
                f"over the limit of {RESIDUE_LIMIT}"
            )
        power = [q**k for k in range(max(n, 1) * precision + 1)]  # power[k] = q^k

        def scan(node: tuple, m: int):
            """([(c, #classes r with node(r) = c mod p)] over the classes that
            map onto one ball (1, c), the singular classes r).  At m = 1 every
            class maps onto its ball (1, node(r) mod p): no partial is read."""
            reduced = tuple((mono, c % q) for mono, c in node if c % q)
            key = (n, reduced, m == 1)
            if key not in scans:
                residues = residue_axes(q, n)
                if m == 1:
                    values = eval_mod(reduced, residues, q)
                    critical = np.zeros(values.shape, dtype=bool)
                else:
                    values, critical = _classify(reduced, residues, q)
                sizes = np.bincount(values[~critical], minlength=q).tolist()
                singular = list(map(tuple, np.argwhere(critical).tolist()))
                scans[key] = [(c, size) for c, size in enumerate(sizes) if size], singular
            return scans[key]

        def balls(node: tuple, m: int, path: Tuple[Tuple[int, ...], ...]) -> ValueBalls:
            nonlocal nodes
            if not any(any(mono) for mono, _ in node):
                return {(m, sum(c for _, c in node)): power[n * m]}
            key = (n, node, m)
            if key in memo:
                return memo[key]
            if nodes >= budget or len(path) > MAX_LIFTS:
                cause = (f"after {nodes} nodes (budget {budget})" if nodes >= budget
                         else f"after {MAX_LIFTS} nested lifts, the most one count takes")
                raise BudgetExceeded(
                    f"value balls of {f} stopped at class "
                    f"{' -> '.join(map(str, path)) or '(root)'} with "
                    f"precision {m}/{precision} {cause}"
                )
            nodes += 1
            smooth, singular = scan(node, m)
            class_weight = power[n * (m - 1)]
            out: ValueBalls = {(1, c): size * class_weight for c, size in smooth}
            for r in singular:
                base, e, h = _lift(node, r, q, m, rows.setdefault(m, {}))
                if e >= m:
                    out[(m, base)] = out.get((m, base), 0) + class_weight
                    continue
                u, child = _normal_form(h, q, m - e)
                scale, shift = power[n * (e - 1)], power[e] * u
                for (k, c), w in balls(child, m - e, path + (r,)).items():
                    ball = (k + e, (base + shift * c) % power[k + e])
                    out[ball] = out.get(ball, 0) + w * scale
            memo[key] = out
            return out

        u, root = _normal_form(f.terms, q, precision)
        found = balls(root, precision, ())
        return {(k, u * c % power[k]): w for (k, c), w in found.items()}, nodes

    return count


def _blocks(f: Polynomial) -> List[Polynomial]:
    """f without its constant term, split into the connected components of
    its variables: two variables are joined when they share a monomial.
    A variable that f does not use is a zero block of its own."""
    parts = [{i} for i in range(f.nvars)]
    for exps in f.terms:
        used = {i for i, e in enumerate(exps) if e}
        if used:
            joined = set().union(*(s for s in parts if s & used))
            parts = [s for s in parts if not s & used] + [joined]
    blocks = []
    for part in sorted(map(sorted, parts)):
        terms = {tuple(e[i] for i in part): c for e, c in f.terms.items() if any(e[i] for i in part)}
        blocks.append(Polynomial([f.variables[i] for i in part], terms))
    return blocks


def ball_counts(
    f: Polynomial, p: int, depth: int, budget: int = DEFAULT_BUDGET
) -> CountSeries:
    """Exact N_m of f on all of Z_p^n, m = 1..depth, from value balls.

    The values of f are folded up from its constant term, one point, by
    adding the value balls of one block of ``_blocks(f)`` at a time: the
    balls (k1, c1) and (k2, c2) sum to the uniform ball c1 + c2 + p^k Z,
    k = min(k1, k2).  The blocks go in order of total degree, each pushed
    only to the precision m = max k of the fold so far: no sum is finer,
    and a ball with k1 <= m needs the block only mod p^k1.  Its weights,
    points mod p^m, are scaled to points mod p^depth.  The folded balls
    are tallied by the valuation of their centres, and N_j is the number
    of points mod p^depth whose value is 0 mod p^j, over p^(n (depth - j)).
    The blocks share one memo of nodes and one node budget, and
    ``nodes_expanded`` counts their nodes as ``_ball_counter`` does, a node
    shared by two blocks once; running out raises BudgetExceeded, and a
    negative budget ValueError.
    """
    check_prime(p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = f.nvars
    if n < 1:
        raise ValueError("need at least one variable")
    power = [p**k for k in range(depth + 1)]  # power[k] = p^k
    fold: ValueBalls = {(depth, f.constant_term() % power[depth]): 1}
    count = _ball_counter(p, budget)
    nodes = 0
    # the values of a ball (k, c), c != 0, have valuation v(c); those of
    # (k, 0) lie in p^k Z, and a share p^(k-j) of them in p^j Z for j > k.
    # The last block's sums go straight to this tally, building no fold.
    exact, zero = [0] * (depth + 2), [0] * (depth + 1)  # weights by v(c), by k of (k, 0)
    blocks = sorted(_blocks(f), key=Polynomial.total_degree)
    last = blocks[-1]
    for block in blocks:
        m = max(k for k, _ in fold)
        balls, nodes = count(block, m)
        scale = p ** (block.nvars * (depth - m))
        summed: ValueBalls = {}
        for (k1, c1), w1 in fold.items():
            w1 *= scale
            for (k2, c2), w2 in balls.items():
                k = k1 if k1 < k2 else k2
                c = (c1 + c2) % power[k]
                if block is not last:
                    summed[(k, c)] = summed.get((k, c), 0) + w1 * w2
                elif not c:
                    zero[k] += w1 * w2
                elif c % p == 0:
                    v = 1
                    while c % power[v + 1] == 0:
                        v += 1
                    exact[v] += w1 * w2
        fold = summed

    for j in range(depth, 0, -1):  # exact[j]: the points of p^j Z in whole balls
        exact[j] += exact[j + 1] + zero[j]
    counts = []
    spread = 0  # the points of p^j Z in the balls (k, 0), k < j
    for j in range(1, depth + 1):
        count_j, rest = divmod(exact[j] + spread, p ** (n * (depth - j)))
        if rest:
            raise ArithmeticError(f"value balls give a fractional N_{j}")
        counts.append(count_j)
        spread = (spread + zero[j]) // p
    return CountSeries(f=f, p=p, dim=n, counts=tuple(counts), n0=1, nodes_expanded=nodes)


def measure_series(counts: CountSeries) -> Tuple[Fraction, ...]:
    """coefficient of t^m = N_m q^(-mn) - N_(m+1) q^(-(m+1)n), m < depth.

    This is the Haar volume of {x : v(f(x)) = m}; the last usable index
    is depth - 1.
    """
    q = counts.p
    n = counts.dim
    return tuple(
        Fraction(counts.N(m) * q**n - counts.N(m + 1), q ** ((m + 1) * n))
        for m in range(counts.depth)
    )


# ---------------------------------------------------------------------------
# end-to-end verification


@dataclass(frozen=True)
class VerificationReport:
    """Everything verify_theorem saw, pass or fail."""

    ok: bool
    p: int
    depth: int
    max_deg: int
    factors: Tuple[Factor, ...]
    counts: CountSeries
    series: Tuple[Fraction, ...]
    numerator: Optional[Tuple[Fraction, ...]]
    residuals: Tuple[Tuple[int, Fraction], ...]
    cancelled_factors: Tuple[Factor, ...]
    surviving_factors: Tuple[Factor, ...]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "p": self.p,
            "depth": self.depth,
            "max_deg": self.max_deg,
            "factors": [list(f) for f in self.factors],
            "candidate_poles": [str(x) for x in poles(self.factors)],
            "counts": list(self.counts.counts),
            "series": [str(c) for c in self.series],
            "numerator": None
            if self.numerator is None
            else [str(c) for c in self.numerator],
            "residuals": [[m, str(c)] for m, c in self.residuals],
            "cancelled_factors": [list(f) for f in self.cancelled_factors],
            "poles_surviving": [str(x) for x in poles(self.surviving_factors)],
            # schema 1 keeps the key; verify does not test non-criticality
            "noncrit_warnings": [],
        }


def verify_theorem(
    f: Polynomial,
    g: Polynomial,
    p: int,
    depth: Optional[int] = None,
    max_deg: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Check the predicted denominator of Z(f(+)g; s) against true counts.

    Pipeline: predicted factors (1 - q^-A t^B) for the direct sum, exact
    measure series to `depth`, numerator recovery demanding that every
    series coefficient of degree in (max_deg, depth-1] vanish after
    multiplying by the denominator, then factor-by-factor cancellation
    to report which candidate poles survive.

    Defaults: max_deg = depth - 3 when depth is given (two residual
    checks), else max_deg = sum of t-powers and depth = max_deg + that
    sum + 2.  A failed recovery is returned as a report with ok=False
    and the nonzero residuals — a falsification candidate, not an
    exception; every factor then counts as surviving.  The counts are
    ``ball_counts`` of f(x) + g(y), whose blocks split f from g; running
    out of node budget there raises BudgetExceeded.
    """
    check_prime(p)
    factors = tuple(tsden.denominator(f, g).factors())
    total_b = sum(b for _, b in factors)
    if max_deg is None:
        max_deg = depth - 3 if depth is not None else total_b
    if depth is None:
        depth = total_b + max_deg + 2
    if max_deg < 0 or depth < 2:
        raise ValueError(f"unusable window: depth={depth}, max_deg={max_deg}")

    counts = ball_counts(direct_sum(f, g), p, depth, budget=budget)
    series = measure_series(counts)
    recovery = recover_numerator(series, factors, p, max_deg)
    cancelled, surviving = (), factors
    if recovery.ok:
        reduction = reduce_factors(RationalZeta(recovery.numerator, factors, p))
        cancelled, surviving = reduction.cancelled, reduction.surviving
    return VerificationReport(
        ok=recovery.ok,
        p=p,
        depth=depth,
        max_deg=max_deg,
        factors=factors,
        counts=counts,
        series=series,
        numerator=recovery.numerator,
        residuals=recovery.residuals,
        cancelled_factors=cancelled,
        surviving_factors=surviving,
    )
