"""The benchmark's three workloads: seeded op lists and the checks on their outputs.

An op is one `igusa` command line.  Ops come in groups that are checked
together, because the crosscheck compares the outputs of two routes on
the same input.  A group's check receives one `Outcome` per op and
returns one verdict per op: None when the output is right, else a reason.

Workloads, and why each was chosen:

* crosscheck: hundreds of millisecond-scale `spf` and shallow `count`
  ops on polynomials drawn from the seed.  `spf`, `mpoly`, `numeric` and
  the per-call `cli` cost do the work; `oracle` counts only a few levels.
* verify: `igusa verify` on direct sums.  Seven second-scale ops, where
  `count_mod` bulk lifting takes nearly the whole op and sets peak
  memory.
* analyze: `igusa analyze` (exact Groebner mode in 2 variables, the
  finite-field scan in 3) and `igusa poles` on 3-4 variable polynomials;
  `noncrit`, `newton` and `_linalg` do the work, and it is the only
  workload that uses sympy.  Its ops under 0.15 s appear three times in
  a sample, each scaled by its own unit, so that the median latency falls
  among many ops and not in the gap between two.

verify and analyze draw from fixed pools whose outputs are kept in
reference.json.  The seed multiplies every input by a unit `u` (coprime
to p and to the auxiliary primes of the finite-field scan).  Scaling by a unit changes neither the counts, nor
the Newton polyhedra, nor the torus zeros of the partials, so the
reference outputs hold for every seed while each seed sends other argv.

A run draws its sample of ops once from the seed and runs the whole
sample several times, each pass in a new seeded order.  An op's latency is the fastest of its passes: the host's
speed changes from second to second, and the passes spread each op over
the run.  The first pass also takes the first-call costs (lazy imports,
numpy's first dispatch), which the later passes do not pay.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Terms = Dict[Tuple[int, ...], int]

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


@dataclass
class Outcome:
    """What one `cli.main` call returned: exit code and captured streams."""

    code: Optional[int]  # None when the op was stopped by its deadline
    stdout: str
    stderr: str
    limit: Optional[str] = None  # "deadline" when stopped


@dataclass
class Group:
    argvs: List[List[str]]
    check: Callable[[Sequence[Outcome]], List[Optional[str]]]
    # reason a check may report that matches a defect the benchmark keeps
    # visible on purpose; such an op is not ok but is not counted as failed
    known_defect: Optional[str] = None


@dataclass
class Workload:
    sample: Callable[[random.Random], List[Group]]  # a run's groups, drawn from the seed
    nominal_pass_s: float  # one pass's summed op latency on a 2-core host, Python 3.11
    min_passes: int
    op_deadline_s: float


# ---------------------------------------------------------------------------
# shared helpers


def poly_text(variables: str, terms: Terms) -> str:
    """Polynomial source with explicit '*' between factors (the parser reads
    'xy' as one variable)."""
    parts = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def error_type(out: Outcome) -> Optional[str]:
    """The `type` of a structured CLI error on stderr, if there is one."""
    try:
        return json.loads(out.stderr)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return None


def describe_failure(out: Outcome) -> str:
    if out.limit is not None:
        return f"stopped by the benchmark's {out.limit} limit"
    kind = error_type(out)
    if kind is not None:
        return f"exit {out.code} with {kind}: {json.loads(out.stderr)['error']['message']}"
    return f"exit {out.code}, stderr {out.stderr.strip()[:200]!r}"


def unit_multiplier(rng: random.Random, p: Optional[int] = None) -> int:
    """A small unit coprime to p and to the auxiliary primes 101, 103, 107."""
    return rng.choice([u for u in (1, 2, 3, 4, 6, 7, 8, 9) if p is None or u % p])


# ---------------------------------------------------------------------------
# crosscheck: stationary phase against counting


def evaluate_mod(terms: Terms, pts: np.ndarray, modulus: int) -> np.ndarray:
    """f(pts) mod modulus; count_depth keeps modulus**2 far below 2**63."""
    acc = np.zeros(pts.shape[0], dtype=np.int64)
    for exps, coeff in terms.items():
        term = np.full(pts.shape[0], coeff % modulus, dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * pts[:, i] % modulus
        acc = (acc + term) % modulus
    return acc


def zero_volumes(terms: Terms, n: int, p: int, depth: int, units: bool) -> List[Fraction]:
    """V_m = Haar volume of {x in D : f(x) = 0 mod p^m} for m = 0..depth.

    D is Z_p^n, or its units when `units`; counted by lifting solutions
    level by level.  Independent of the program under test.
    """
    digits = range(1, p) if units else range(p)
    surv = np.array(list(itertools.product(digits, repeat=n)), dtype=np.int64)
    offsets = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    surv = surv[evaluate_mod(terms, surv, p) == 0]
    volumes = [Fraction(p**n if not units else (p - 1) ** n, p**n),
               Fraction(len(surv), p**n)]
    # blocks of survivors keep the checker's arrays small next to the
    # program's, so that the child's peak memory is the program's
    rows = max(1, 20_000 // len(offsets))
    for m in range(2, depth + 1):
        pieces = []
        for start in range(0, len(surv), rows):
            cand = (surv[start:start + rows, None, :]
                    + p ** (m - 1) * offsets[None, :, :]).reshape(-1, n)
            pieces.append(cand[evaluate_mod(terms, cand, p**m) == 0])
        surv = np.concatenate(pieces) if pieces else surv
        volumes.append(Fraction(len(surv), p ** (m * n)))
    return volumes


def series_from_volumes(volumes: Sequence[Fraction]) -> List[Fraction]:
    return [volumes[m] - volumes[m + 1] for m in range(len(volumes) - 1)]


def expand_zeta(zeta: dict, depth: int) -> List[Fraction]:
    """The first `depth` Maclaurin coefficients of numerator / prod(1 - q^-a t^b)."""
    q = zeta["q"]
    coeffs = [Fraction(c) for c in zeta["numerator"]][:depth]
    coeffs += [Fraction(0)] * (depth - len(coeffs))
    for a, b in zeta["denominator_factors"]:
        for m in range(b, depth):
            coeffs[m] += coeffs[m - b] / q**a
    return coeffs


def count_depth(p: int, n: int) -> int:
    """Deepest level from 2 to 6 at which even f = 0 would lift at most 10^5
    candidates (or 2), so that the count stays shallow whatever the input."""
    d = 2
    while d < 6 and p ** (n * (d + 1)) <= 100_000:
        d += 1
    return d


# (p, n) pairs of a crosscheck round; each appears once smooth and once
# singular in a round.  An spf node scans p^n residues in Python, so (11, 3) and
# (13, 3) make the heaviest ops, and singular inputs there the tail.
CROSSCHECK_SHAPES = [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
    (2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2),
    (2, 3), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3),
]
CATEGORIES = ("smooth", "singular")


def random_terms(rng: random.Random, n: int, category: str) -> Terms:
    """Random polynomial of a category whose singular points are known.

    smooth: +-v plus terms free of v and maybe a constant, so df/dv = +-1
    and f has no singular point in Z_p^n: spf must finish.
    singular: no constant and no linear term, so the origin is a singular
    point: spf on the full domain must stop with DepthGuardExceeded.  Terms
    of at least two total degrees: a homogeneous f repeats itself after one
    lift and stops at once, which would make the op's cost bimodal.
    """
    while True:
        terms: Terms = {}
        free = rng.randrange(n)
        for _ in range(rng.randint(2, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
            total = sum(exps)
            if total > 4 or total < (2 if category == "singular" else 1):
                continue
            if category == "smooth" and exps[free]:
                continue
            terms[exps] = terms.get(exps, 0) + rng.choice([-3, -2, -1, 1, 2, 3, 4, 5])
        if category == "smooth":
            terms[tuple(int(i == free) for i in range(n))] = rng.choice([-1, 1])
            if rng.random() < 0.5:
                terms[(0,) * n] = rng.randint(1, 6)
        terms = {e: c for e, c in terms.items() if c}
        if all(c < 0 for c in terms.values()):
            # same zeros; and argparse would read a lone "-x" as an option
            terms = {e: -c for e, c in terms.items()}
        if category == "singular" and len({sum(e) for e in terms}) < 2:
            continue
        # every variable must appear, or the parser sees fewer of them
        if all(any(e[i] for e in terms) for i in range(n)):
            return terms


def crosscheck_group(rng: random.Random, p: int, n: int, category: str,
                     terms: Optional[Terms] = None) -> Group:
    terms = random_terms(rng, n, category) if terms is None else terms
    text = poly_text("xyz"[:n], terms)
    depth = count_depth(p, n)
    trace = rng.random() < 1 / 3
    argvs = [
        ["spf", "-f", text, "-p", str(p)] + (["--trace"] if trace else []),
        ["spf", "-f", text, "-p", str(p), "--domain", "torus"],
        ["count", "-f", text, "-p", str(p), "--depth", str(depth)],
    ]

    def check(outs: Sequence[Outcome]) -> List[Optional[str]]:
        spf_full, spf_torus, count = outs
        full_volumes = zero_volumes(terms, n, p, depth, units=False)
        verdicts: List[Optional[str]] = [None, None, None]

        # count: the oracle's N_m against independent lifting
        if count.code != 0:
            verdicts[2] = describe_failure(count)
            counted_series = None
        else:
            payload = json.loads(count.stdout)
            expect = [int(v * p ** (m * n)) for m, v in enumerate(full_volumes)][1:]
            counted_series = [Fraction(c) for c in payload["series"]]
            if payload["truncated"] or payload["counts"] != expect:
                verdicts[2] = f"counts {payload['counts']} != {expect}"
            elif counted_series != series_from_volumes(full_volumes):
                verdicts[2] = "series does not follow from the counts"

        # spf on the full domain against the counted series (the paper's two routes)
        reference = counted_series if counted_series is not None else series_from_volumes(full_volumes)
        verdicts[0] = check_spf(spf_full, reference, depth, must_finish=category == "smooth",
                                must_fail=category == "singular")
        # spf on the torus against independent unit counts
        torus = series_from_volumes(zero_volumes(terms, n, p, depth, units=True))
        verdicts[1] = check_spf(spf_torus, torus, depth, must_finish=category == "smooth",
                                must_fail=False)
        return verdicts

    return Group(argvs, check)


def check_spf(out: Outcome, series: List[Fraction], depth: int,
              must_finish: bool, must_fail: bool) -> Optional[str]:
    """An spf result must expand to the counted series; DepthGuardExceeded is
    right only where the input may have a singular point in the domain."""
    if out.code == 0:
        if must_fail:
            return "returned a value although the origin is a singular point"
        got = expand_zeta(json.loads(out.stdout)["zeta"], depth)
        if got != series:
            return f"expansion {[str(c) for c in got]} != counted {[str(c) for c in series]}"
        return None
    if out.code == 1 and error_type(out) == "DepthGuardExceeded" and not must_finish:
        return None
    return describe_failure(out)


def depth_guard_exit(out: Outcome) -> bool:
    return out.code == 1 and error_type(out) == "DepthGuardExceeded"


def crosscheck_sample(rng: random.Random) -> List[Group]:
    """Two rounds of CROSSCHECK_SHAPES, each shape smooth and singular."""
    groups = [crosscheck_group(rng, p, n, category) for _ in range(2)
              for p, n in CROSSCHECK_SHAPES for category in CATEGORIES]
    # A count's memory grows with the zeros mod p it lifts.  u*(x^2*y*z - y^3*z)
    # vanishes on four planes, 613 of the 2197 points mod 13, the most of any
    # singular input the generator makes (25 to 613).  With it in every sample
    # the child's peak memory no longer drops when a draw has no large count.
    u = unit_multiplier(rng, 13)
    groups.append(crosscheck_group(rng, 13, 3, "singular", {(2, 1, 1): u, (0, 3, 1): -u}))
    return groups


# ---------------------------------------------------------------------------
# verify and analyze: ops of reference.json, checked against their outputs


def scaled(text: str, u: int) -> str:
    """u * (text) for the pools' own polynomials: terms like '-3*x^2*y'."""
    if u == 1:
        return text
    monomials = []
    for chunk in filter(None, text.replace(" ", "").replace("-", "+-").split("+")):
        coeff = -u if chunk.startswith("-") else u
        powers = {}
        for factor in chunk.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                powers[name] = int(exp or 1)
        monomials.append((coeff, powers))
    variables = "".join(sorted({v for _, pw in monomials for v in pw}))
    terms: Terms = {}
    for coeff, powers in monomials:
        exps = tuple(powers.get(v, 0) for v in variables)
        terms[exps] = terms.get(exps, 0) + coeff
    return poly_text(variables, terms)


def analyze_fields(payload: dict) -> dict:
    """The parts of an analyze payload that scaling by a unit leaves alone."""
    report = payload["noncritical"]
    out = {
        "polyhedron": payload["polyhedron"],
        "verdict": report["verdict"],
        "mode": report["mode"],
        "faces": [(fc["support"], fc["verdict"], fc["field"], fc["certificate"],
                   fc["witness"] is not None) for fc in report["faces"]],
    }
    if "denominator" in payload:
        out["denominator"] = payload["denominator"]
    return json.loads(json.dumps(out))


def reference_check(entry: dict) -> Callable[[Sequence[Outcome]], List[Optional[str]]]:
    """Exit code and every stored output field must match the reference."""

    def check(outs: Sequence[Outcome]) -> List[Optional[str]]:
        (out,) = outs
        if out.code != entry["code"]:
            return [describe_failure(out) if out.code != 0 else f"exit 0, expected {entry['code']}"]
        payload = json.loads(out.stdout) if out.stdout else {}
        if entry["argv"][0] == "analyze":
            payload = analyze_fields(payload)
        for name, value in entry["output"].items():
            if payload.get(name) != value:
                return [f"{name} {payload.get(name)!r} != reference {value!r}"]
        return [None]

    return check


def pool_sample(workload: str) -> Callable[[random.Random], List[Group]]:
    entries = [e for e in REFERENCE["ops"] if e["workload"] == workload]

    def sample(rng: random.Random) -> List[Group]:
        groups = []
        for entry in entries:
            for _ in range(entry.get("repeat", 1)):
                argv = entry["argv"]
                p = int(argv[argv.index("-p") + 1]) if "-p" in argv else None
                u = unit_multiplier(rng, p)
                argv = [scaled(a, u) if flag in ("-f", "-g") else a
                        for flag, a in zip([None] + argv[:-1], argv)]
                groups.append(Group([argv], reference_check(entry),
                                    known_defect=entry.get("known_defect")))
        return groups

    return sample


WORKLOADS = {
    "crosscheck": Workload(crosscheck_sample, nominal_pass_s=3.1, min_passes=2,
                           op_deadline_s=20.0),
    "verify": Workload(pool_sample("verify"), nominal_pass_s=8.0, min_passes=2,
                       op_deadline_s=60.0),
    "analyze": Workload(pool_sample("analyze"), nominal_pass_s=12.5, min_passes=2,
                        op_deadline_s=60.0),
}
