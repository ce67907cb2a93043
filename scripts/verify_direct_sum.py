#!/usr/bin/env python3
"""Check the predicted denominator of a direct-sum zeta function.

Counts solutions of f(x) + g(y) = 0 mod p^m from the value balls of f
and of g, multiplies the measure series by the predicted denominator,
and reports whether the product truncates to a polynomial (it must, if
the denominator is right).  Exit code 2 flags a falsification, and 1 a
usage error or a budget stop, mirroring the CLI.

    python3 scripts/verify_direct_sum.py -f "x^2" -g "y^3" -p 5 --depth 9
"""

import argparse
import json
import sys

from igusa.cli import parse_polynomial
from igusa.numeric import DEFAULT_BUDGET, PrimeSpec
from igusa.oracle import BudgetExceeded, verify_theorem


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as the CLI's do: exit 2 is left to a falsification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("-f", required=True, help="first polynomial, e.g. 'x^2'")
    parser.add_argument("-g", required=True, help="second polynomial, disjoint variables")
    parser.add_argument("-p", type=int, default=5, help="prime (default 5)")
    parser.add_argument("--depth", type=int, default=8, help="levels of p-adic precision")
    parser.add_argument("--max-deg", type=int, default=None,
                        help="numerator degree cap (default: depth - 3)")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="node budget (default %(default)s) shared by the "
                        "blocks of disjoint variables of f + g; a node is one polynomial "
                        "and precision met in a block's recursion, and nodes with the "
                        "same reduction mod p share one scan of the p^n residues mod p")
    parser.add_argument("--json", action="store_true", help="emit the full JSON report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    f = parse_polynomial(args.f)
    g = parse_polynomial(args.g)
    try:
        report = verify_theorem(
            f, g, PrimeSpec(args.p),
            depth=args.depth, max_deg=args.max_deg, budget=args.budget,
        )
    except BudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.ok else 2

    print(f"f = {f},  g = {g},  p = {args.p},  depth = {args.depth}")
    print(f"candidate denominator factors (q_pow, t_pow): {list(report.factors)}")
    if report.ok:
        numer = " + ".join(
            f"({c})*t^{k}" if k else f"({c})" for k, c in enumerate(report.numerator)
        )
        print(f"numerator recovered exactly: {numer}")
        if report.cancelled_factors:
            print(f"factors cancelled by the numerator: {list(report.cancelled_factors)}")
        print(f"poles surviving cancellation: {[str(r) for r in report.surviving_poles]}")
        return 0
    print("FALSIFIED: residual series coefficients past the cap are nonzero")
    for index, value in report.residuals:
        print(f"  residual at t^{index}: {value}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
