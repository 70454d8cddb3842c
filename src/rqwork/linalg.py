"""Exact rational linear algebra: fraction-free elimination and nullspaces.

The nullspace routine is the engine behind both the tau-relation scanner
and the modular-equation miner, so determinism matters: pivots are chosen
by a fixed rule and the returned basis is canonically scaled, which makes
results reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

from ._backend import bareiss_rows


def _coprime_ints(vector) -> List[int]:
    """Clear denominators of ints and Fractions and divide out the gcd."""
    mult = 1
    for x in vector:
        mult = lcm(mult, x.denominator)
    ints = [x.numerator * (mult // x.denominator) for x in vector]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def primitive(vector: Sequence[Fraction]) -> List[int]:
    """Scale to coprime integers with positive leading nonzero entry."""
    ints = _coprime_ints(vector)
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def row_echelon_int(rows: List[List[int]]):
    """Fraction-free (Bareiss) echelon form, in place.

    Columns are processed left to right; within a column the pivot row is
    the one of maximal absolute value, ties broken by lowest row index.
    Returns the list of pivot columns.
    """
    if not rows:
        return []
    nrows = len(rows)
    ncols = len(rows[0])
    piv_cols = []
    rank = 0
    prev = 1
    for col in range(ncols):
        best = -1
        best_abs = 0
        for r in range(rank, nrows):
            v = abs(rows[r][col])
            if v > best_abs:
                best_abs = v
                best = r
        if best < 0:
            continue
        if best != rank:
            rows[rank], rows[best] = rows[best], rows[rank]
        piv = rows[rank][col]
        bareiss_rows(rows[rank + 1:], rows[rank], col, piv, prev, col)
        prev = piv
        piv_cols.append(col)
        rank += 1
        if rank == nrows:
            break
    return piv_cols


def nullspace_rational(matrix) -> List[List[int]]:
    """Basis of the right nullspace, as primitive integer vectors.

    One basis vector per free column (value 1 there, 0 at the other free
    columns), matching the shape of a reduced-echelon solve; each vector
    is scaled to coprime integers with positive leading entry.
    """
    rows = [_coprime_ints(row) for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    piv_cols = row_echelon_int(rows)
    free_cols = [c for c in range(ncols) if c not in set(piv_cols)]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        # back substitution over the echelon rows
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            s = Fraction(0)
            row = rows[r]
            for c in range(pc + 1, ncols):
                if row[c] and x[c]:
                    s += Fraction(row[c]) * x[c]
            x[pc] = -s / row[pc]
        basis.append(primitive(x))
    return basis

