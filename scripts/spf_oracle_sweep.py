#!/usr/bin/env python3
"""Cross-check the stationary-phase evaluator against point counting.

For every polynomial in the corpus (built-in or read one-per-line from a
file) and every requested prime, evaluates the measure zeta function two
independent ways — the residue-class recursion and the solution counts
mod p^m that `igusa count` reads off the value balls — and compares the
series coefficient-by-coefficient in exact rational arithmetic.

    python3 scripts/spf_oracle_sweep.py --primes 3 5 7 --depth 8
"""

import argparse
import sys
from dataclasses import dataclass
from typing import List, Optional

from igusa.cli import parse_polynomial
from igusa.numeric import PrimeSpec
from igusa.oracle import ball_counts, measure_series
from igusa.ratfun import expand
from igusa.spf import DepthGuardExceeded, ResidueDomain, spf_evaluate

DEFAULT_CORPUS = [
    "x",
    "3x + 5",
    "x^2 + x",
    "x^2 - 5",
    "x^2 + 3x + 1",
    "x + y",
    "x^2 + 3x + y",
    "x^2 + y^2 + x",
]


@dataclass
class SweepConfig:
    primes: List[int]
    depth: int
    corpus: List[str]


def run_sweep(config: SweepConfig) -> int:
    failures = 0
    width = max(len(text) for text in config.corpus)
    for text in config.corpus:
        f = parse_polynomial(text)
        for p in config.primes:
            spec = PrimeSpec(p)
            domain = ResidueDomain.full(p, f.nvars)
            label = f"{text:<{width}}  p={p}"
            try:
                result = spf_evaluate(f, domain, spec)
            except DepthGuardExceeded as exc:
                print(f"{label}  SKIP  (recursion not finite: {exc})")
                continue
            via_spf = expand(result.zeta, config.depth - 1)
            via_counts = measure_series(ball_counts(f, spec, config.depth))
            bad = [
                m
                for m in range(config.depth)
                if via_spf.coeff(m) != via_counts.coeff(m)
            ]
            if bad:
                failures += 1
                print(f"{label}  MISMATCH at m={bad}")
                for m in bad[:4]:
                    print(f"    spf: {via_spf.coeff(m)}   counts: {via_counts.coeff(m)}")
            else:
                numer = ", ".join(str(c) for c in result.zeta.numerator)
                print(f"{label}  OK    ({result.trace.depth} recursion levels, "
                      f"numerator [{numer}])")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5])
    parser.add_argument("--depth", type=int, default=8,
                        help="series coefficients to compare (default 8)")
    parser.add_argument("--corpus", type=argparse.FileType("r"), default=None,
                        help="file with one polynomial per line")
    args = parser.parse_args(argv)
    corpus = DEFAULT_CORPUS
    if args.corpus is not None:
        corpus = [line.strip() for line in args.corpus if line.strip()]
    failures = run_sweep(SweepConfig(primes=args.primes, depth=args.depth, corpus=corpus))
    if failures:
        print(f"{failures} mismatches", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
