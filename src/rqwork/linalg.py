"""Exact rational linear algebra: fraction-free elimination and nullspaces.

The nullspace routine is the engine behind both the tau-relation scanner
and the modular-equation miner, so determinism matters: pivots are chosen
by a fixed rule and the returned basis is canonically scaled, which makes
results reproducible bit for bit.

A matrix is solved block by block: its columns split into the connected
components of the nonzero pattern (two columns are joined when one row is
nonzero in both), and each block is eliminated on its own.  The split is
exact.  The pivot columns of a left-to-right elimination are the greedy
independent columns, a set that separates by block, and each basis vector
is the unique kernel vector with 1 at its free column and 0 at the other
free columns, so the blocks give the basis of the whole matrix.  A mining
matrix falls apart into at least one block per coset of its exponent
lattice; a dense matrix is a single block.
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


def _blocks(rows, ncols):
    """Connected components of the nonzero pattern, as (columns, rows).

    A row joins the block of its nonzero columns and a zero row joins
    none; a column that is zero in every row is a block of its own with
    no rows.  Blocks come in order of their first column, and columns
    and rows keep their order inside a block.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supports = []
    for row in rows:
        support = [c for c, x in enumerate(row) if x]
        supports.append(support)
        if support:
            root = find(support[0])
            for c in support[1:]:
                other = find(c)
                if other != root:
                    parent[other] = root
    cols, members = {}, {}
    for c in range(ncols):
        cols.setdefault(find(c), []).append(c)
    for row, support in zip(rows, supports):
        if support:
            members.setdefault(find(support[0]), []).append(row)
    return [(block, members.get(root, [])) for root, block in cols.items()]


def _block_nullspace(rows: List[List[int]], ncols: int):
    """(free column, primitive vector) of one block, in free-column order."""
    piv_cols = row_echelon_int(rows)
    pivots = set(piv_cols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
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
        out.append((f, primitive(x)))
    return out


def nullspace_rational(matrix) -> List[List[int]]:
    """Basis of the right nullspace, as primitive integer vectors.

    One basis vector per free column (value 1 there, 0 at the other free
    columns), matching the shape of a reduced-echelon solve, in ascending
    free-column order; each vector is scaled to coprime integers with
    positive leading entry.  Each block of the nonzero pattern is solved
    on its own (see the module docstring).
    """
    rows = [_coprime_ints(row) for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    basis = {}
    for cols, block_rows in _blocks(rows, ncols):
        sub = [[row[c] for c in cols] for row in block_rows]
        for f, vec in _block_nullspace(sub, len(cols)):
            x = [0] * ncols
            for c, value in zip(cols, vec):
                x[c] = value
            basis[cols[f]] = x
    return [basis[f] for f in sorted(basis)]
