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
* :mod:`igusa.oracle` — point counting by value balls and end-to-end
  denominator verification.  The lifting reference that the tests check
  it against lives in ``tests/reference.py``.
* :mod:`igusa.cli` — the `igusa` command.
"""

from importlib import import_module

__version__ = "0.1.0"


# each public name is imported from its module on first use, so that
# `import igusa` loads nothing (numpy included) until a name is asked for,
# and `python -m igusa.cli` does not find igusa.cli already imported
_EXPORTS = {
    "mpoly": ("Polynomial", "direct_sum"),
    "newton": ("NewtonPolyhedron", "build_polyhedron"),
    "noncrit": ("check_noncritical",),
    "numeric": ("INFINITE", "PrimeSpec", "p_valuation"),
    "oracle": ("measure_series", "verify_theorem"),
    "ratfun": ("PowerSeries", "RationalZeta", "expand", "recover_numerator"),
    "spf": ("ResidueDomain", "spf_counts", "spf_evaluate"),
    "tsden": ("candidate_poles", "denominator"),
    "euclid": ("orbit", "weight_sums"),
    "cli": ("parse_polynomial",),
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULES)


def __getattr__(name):
    if name in _MODULES:
        return getattr(import_module(f".{_MODULES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
