"""Exact rational linear algebra: certified multimodular nullspaces.

The nullspace routine is the engine behind both the tau-relation scanner
and the modular-equation miner, so determinism matters: the basis is the
one of the reduced echelon form, canonically scaled, which makes results
reproducible bit for bit.

A matrix is solved block by block: its columns split into the connected
components of the nonzero pattern (two columns are joined when one row is
nonzero in both), and each block is solved on its own.  The split is
exact.  The pivot columns of a left-to-right elimination are the greedy
independent columns, a set that separates by block, and each basis vector
is the unique kernel vector with 1 at its free column and 0 at the other
free columns, so the blocks give the basis of the whole matrix.  A mining
matrix falls apart into at least one block per coset of its exponent
lattice; a dense matrix is a single block.

A block is solved modulo word-size primes (2**61 - 1, then the primes
below it).  The reduced echelon form mod p gives, for each free column f,
a kernel vector with 1 at f and -R[r][f] at the pivot of row r; each entry
is lifted to a rational by Wang's reconstruction, and residues of several
primes are combined by the Chinese remainder theorem until every lifted
vector passes an exact check against the integer rows being solved.  The
check is the certificate for those rows:

* a vector that passes shows, over Q, that its free column f depends on
  the pivot columns left of f, so f is free over Q too;
* the rank mod p is at most the rank over Q, so when every vector passes,
  the pivot columns mod p are exactly the greedy pivot columns over Q, and
  each vector (1 at f, 0 at the other free columns) is the canonical one.

A prime is unlucky when its pivot list has fewer pivots, or is
lexicographically later, than another prime's; it divides one fixed
nonzero minor of the block, so only finitely many primes are unlucky.
Residues are combined only across primes with the same pivot list, and a
better list discards what was gathered before.  Once the product of the
good primes exceeds 2*H**2 (H the block's Hadamard bound) every lift is
exact, so the loop ends without a cap.

A block is solved on its leading rows first.  A tall block (the tau scans
are 289 x 17 and 289 x 26) has far more rows than its rank, and the rows
that add no rank are most of the elimination.  The solve above runs on
the first k rows, k from the block's column count (a bound on the rank)
up, and its lifted vectors are certified on those k rows exactly as
described.  The kernel of the leading rows contains the kernel of the
block.  So when every certified vector also annihilates the remaining
rows, the two kernels are equal, and the basis, with 1 at its free column
and 0 at the other free columns, is the block's canonical one.  Each
vector is checked on the remaining rows as soon as it is certified.  When
one fails there, the leading rows miss some of the block's rank: k
doubles and the block is solved again, until k covers every row.  A
failure there widens k; it never rejects a prime, because the vector is
already certified for the rows it was solved on.

``row_echelon_int`` keeps the fraction-free (Bareiss) elimination as an
independent reference for the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from operator import sub
from typing import List, Sequence

from ._backend import bareiss_rows

# Miller-Rabin with the first 12 prime bases is exact below 3.18e23
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: List[int] = []   # the moduli found so far, filled on first use


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """2**61 - 1, then the primes below it in descending order."""
    k = 0
    while True:
        if k == len(_PRIMES):
            n = _PRIMES[-1] - 2 if _PRIMES else 2 ** 61 - 1
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[k]
        k += 1


def _coprime_ints(vector) -> List[int]:
    """Clear denominators of ints and Fractions and divide out the gcd."""
    if set(map(type, vector)) <= {int}:
        ints = list(vector)
    else:
        mult = lcm(*(x.denominator for x in vector))
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
    columns = range(ncols)
    for row in rows:
        support = list(compress(columns, row))
        supports.append(support)
        if support:
            root = find(support[0])
            for c in support[1:]:
                if parent[c] != root:
                    parent[find(c)] = root
    cols, members = {}, {}
    for c in range(ncols):
        cols.setdefault(find(c), []).append(c)
    for row, support in zip(rows, supports):
        if support:
            members.setdefault(find(support[0]), []).append(row)
    return [(block, members.get(root, [])) for root, block in cols.items()]


def _echelon_mod(rows, ncols, p):
    """Pivot columns and pivot rows (pivot entry 1) of an echelon form mod p.

    The pivot columns are the greedy independent columns mod p, those of
    the reduced echelon form.  Entries of the rows below a pivot are
    reduced only when read: each step subtracts f*y with f and y below p,
    so an entry grows by less than p**2 per step.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        tail = [x * inv % p for x in rows[r][col:]]
        rows[r][col:] = tail
        tail = tail[1:]
        for row in rows[r + 1:]:
            f = row[col] % p
            if f:
                row[col + 1:] = map(sub, row[col + 1:], map(f.__mul__, tail))
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots, rows[:len(pivots)]


def _kernel_mod(echelon, pivots, f, ncols, p):
    """The kernel vector mod p with 1 at free column f and 0 at the other
    free columns: -R[r][f] at pivot r of the reduced echelon form R."""
    x = [0] * ncols
    x[f] = 1
    support = [f]
    # pivots right of f see only zeros, so start at the last one left of f
    for r in range(bisect_left(pivots, f) - 1, -1, -1):
        row = echelon[r]
        s = sum(row[c] * x[c] for c in support) % p
        if s:
            pc = pivots[r]
            x[pc] = p - s
            support.append(pc)
    return x


def _reconstruct(a, m, bound):
    """n/d = a mod m with |n|, d <= bound (Wang), or None."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(residues, m):
    """The rational vector congruent to residues mod m, as a primitive
    integer vector, or None when an entry has no reconstruction."""
    bound = isqrt(m // 2)
    x = [0] * len(residues)
    for c, a in enumerate(residues):
        if a:
            x[c] = _reconstruct(a, m, bound)
            if x[c] is None:
                return None
    return primitive(x)


def _annihilates(columns, vec):
    """Whether the block times vec is exactly 0, from the block's integer
    columns at the nonzero entries of vec."""
    terms = [map(v.__mul__, columns[c]) for c, v in enumerate(vec) if v]
    return not any(map(sum, zip(*terms)))


def _certified_kernel(rows: List[List[int]], ncols: int, rest):
    """(free column, primitive vector) of the kernel of ``rows``, in
    free-column order, or None when the block's remaining rows ``rest``
    (given as columns) reject a vector.

    The rows are solved mod successive primes until every lifted vector
    passes the exact check on them (see the module docstring).  A vector
    that passes and then fails on ``rest`` is a kernel vector of ``rows``
    outside the block's kernel, so ``rows`` miss some of the block's rank
    and more primes cannot help.
    """
    columns = list(zip(*rows)) or [()] * ncols
    pivots = None
    for p in _primes():
        piv, echelon = _echelon_mod(rows, ncols, p)
        if pivots is None or (-len(piv), piv) < (-len(pivots), pivots):
            # the first prime, or one with a better pivot list: start over
            pivots, m, done = piv, 1, {}
            pivot_set = set(pivots)
            free = [f for f in range(ncols) if f not in pivot_set]
            residues = {f: [0] * ncols for f in free}
        elif piv != pivots:
            continue    # an unlucky prime
        # Chinese remainder step: from residues mod m and x mod p to mod m*p
        inv = pow(m, -1, p)
        for f in free:
            if f not in done:
                x = _kernel_mod(echelon, pivots, f, ncols, p)
                residues[f] = [a + m * ((b - a) * inv % p)
                               for a, b in zip(residues[f], x)]
        m *= p
        for f in free:
            if f not in done:
                vec = _lift(residues[f], m)
                if vec is not None and _annihilates(columns, vec):
                    if rest and not _annihilates(rest, vec):
                        return None
                    done[f] = vec
        if len(done) == len(free):
            return [(f, done[f]) for f in free]


def _block_nullspace(rows: List[List[int]], ncols: int):
    """(free column, primitive vector) of one block, in free-column order.

    The kernel of the first k rows, k = ncols, 2 ncols, ..., is accepted
    once every vector also annihilates the remaining rows (see the module
    docstring).
    """
    k = ncols
    while True:
        basis = _certified_kernel(rows[:k], ncols, list(zip(*rows[k:])))
        if basis is not None:
            return basis
        k *= 2


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
        block = [[row[c] for c in cols] for row in block_rows]
        for f, vec in _block_nullspace(block, len(cols)):
            x = [0] * ncols
            for c, value in zip(cols, vec):
                x[c] = value
            basis[cols[f]] = x
    return [basis[f] for f in sorted(basis)]
