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

__version__ = "0.1.0"
