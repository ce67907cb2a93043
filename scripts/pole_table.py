#!/usr/bin/env python3
"""Tabulate candidate poles for direct sums of pure powers x^a + y^b.

For each pair (a, b) up to the bound, builds the predicted denominator
of the zeta function of x^a + y^b and prints the non-universal candidate
poles.  Useful for eyeballing how the pole set moves with the exponents.

    python3 scripts/pole_table.py --bound 6
"""

import argparse
import sys
from typing import List, Optional

from igusa.cli import parse_polynomial
from igusa.tsden import denominator


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=int, default=6, help="max exponent (default 6)")
    args = parser.parse_args(argv)
    if args.bound < 1:
        parser.error("--bound must be positive")

    print("a\tb\tfactors (q_pow, t_pow)\tpoles beyond -1")
    for a in range(1, args.bound + 1):
        for b in range(a, args.bound + 1):
            f = parse_polynomial(f"x^{a}")
            g = parse_polynomial(f"y^{b}")
            den = denominator(f, g)
            extra = [r for r in reversed(den.candidate_poles()) if r != -1]
            factors = ", ".join(f"(1 - q^-{qp} t^{tp})" for qp, tp in den.factors()[1:])
            print(f"{a}\t{b}\t{factors or '-'}\t{[str(r) for r in extra] or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
