"""Exact Igusa local zeta data for polynomials over the p-adic integers.

Subpackages by role:

* :mod:`igusa.numeric`, :mod:`igusa.mpoly` — exact arithmetic and sparse
  integer polynomials.
* :mod:`igusa.newton` — Newton polyhedra: facets, faces, weight cones.
* :mod:`igusa.noncrit` — Newton non-criticality decisions.
* :mod:`igusa.euclid` — the interleaved subtraction orbit underlying the
  exponent bookkeeping.
* :mod:`igusa.tsden` — denominator factors and candidate poles of the
  direct-sum zeta function.
* :mod:`igusa.ratfun` — rational functions in t = q^(-s), series
  expansion, numerator recovery.
* :mod:`igusa.spf` — stationary-phase recursion: exact evaluation of
  the measure integral over residue domains.
* :mod:`igusa.oracle` — point counting (brute-force lifting, and value
  balls for direct sums) and end-to-end denominator verification.
* :mod:`igusa.cli` — the `igusa` command.
"""

from .mpoly import Polynomial, direct_sum
from .newton import NewtonPolyhedron, build_polyhedron
from .noncrit import check_noncritical
from .numeric import INFINITE, PrimeSpec, p_valuation
from .oracle import ConeDomainSpec, count_mod, measure_series, verify_theorem
from .ratfun import PowerSeries, RationalZeta, expand, recover_numerator
from .spf import ResidueDomain, spf_counts, spf_evaluate, sup_bound
from .tsden import candidate_poles, denominator
from .euclid import orbit, weight_sums

__all__ = [
    "Polynomial",
    "direct_sum",
    "NewtonPolyhedron",
    "build_polyhedron",
    "check_noncritical",
    "INFINITE",
    "PrimeSpec",
    "p_valuation",
    "ConeDomainSpec",
    "count_mod",
    "measure_series",
    "verify_theorem",
    "PowerSeries",
    "RationalZeta",
    "expand",
    "recover_numerator",
    "ResidueDomain",
    "spf_counts",
    "spf_evaluate",
    "sup_bound",
    "candidate_poles",
    "denominator",
    "orbit",
    "weight_sums",
    "parse_polynomial",
]

__version__ = "0.1.0"


def __getattr__(name):
    # loaded on first use, so that `python -m igusa.cli` does not find
    # igusa.cli already imported by the package
    if name == "parse_polynomial":
        from .cli import parse_polynomial

        return parse_polynomial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
