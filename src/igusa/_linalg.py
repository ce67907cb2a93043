"""Exact integer linear algebra.

``rank`` takes integer rows to one fraction-free integer elimination
(Bareiss); ``rank_mod`` runs the same elimination over F_ell.
Everything is written for the desk-scale matrices that arise from
Newton polyhedra in at most a handful of variables; no attempt is made
at asymptotic efficiency.
"""

from __future__ import annotations


def _bareiss(m, ell: int = 0):
    """Fraction-free (Bareiss) row echelon form of an integer matrix, in place.

    Returns the rank: every update divides exactly by the previous
    pivot, so entries stay integer minors of the input.  Given a prime
    ell, the entries are residues mod ell, and each update is reduced mod
    ell instead of divided.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r, prev = 0, 1
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            if ell:
                m[i] = [(p * a - f * b) % ell for a, b in zip(row, top)]
            else:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        r += 1
    return r


def rank(rows) -> int:
    """Rank of an integer matrix given as a list of rows."""
    return _bareiss([list(row) for row in rows])


def rank_mod(rows, ell: int) -> int:
    """Rank over F_ell of an integer matrix given as a list of rows."""
    return _bareiss([[x % ell for x in row] for row in rows], ell)
