"""The block-split multimodular nullspace, solved on leading rows, against
a plain Fraction Gauss-Jordan solve."""

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from rqwork import linalg
from rqwork.characters import RQSpec, TauTable
from rqwork.linalg import (_block_nullspace, _is_prime, _primes,
                           nullspace_rational)


def _reference_nullspace(matrix, ncols):
    """One primitive vector per free column of the reduced echelon form."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][free]
        mult = lcm(*(v.denominator for v in x))
        ints = [int(v * mult) for v in x]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        basis.append(ints)
    return basis


@st.composite
def permuted_block_diagonal(draw):
    """Rows and columns of a block diagonal matrix, shuffled.

    One to four blocks of small integers, plus zero rows and columns that
    are zero in every row.
    """
    blocks = [draw(st.integers(1, 3).flatmap(lambda c: st.lists(
        st.lists(st.integers(-3, 3), min_size=c, max_size=c),
        min_size=1, max_size=3))) for _ in range(draw(st.integers(1, 4)))]
    ncols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 2))
    rows, offset = [], 0
    for block in blocks:
        for part in block:
            row = [0] * ncols
            row[offset:offset + len(part)] = part
            rows.append(row)
        offset += len(block[0])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(ncols)))
    return [[rows[i][j] for j in col_order] for i in row_order]


@settings(max_examples=200, deadline=None)
@given(permuted_block_diagonal())
def test_block_split_matches_reference(matrix):
    ncols = len(matrix[0])
    assert nullspace_rational(matrix) == _reference_nullspace(matrix, ncols)


def test_zero_column_gives_unit_vector():
    matrix = [[1, 0, 1, 0], [2, 0, 3, 0], [0, 0, 0, 5]]
    assert nullspace_rational(matrix) == [[0, 1, 0, 0]]


P = 2 ** 61 - 1
P2 = next(p for p in range(P - 2, 0, -2) if _is_prime(p))


def test_primes_descend_from_mersenne():
    assert list(islice(_primes(), 2)) == [P, P2]
    small = [n for n in range(39, 5000, 2) if _is_prime(n)]
    assert small == [n for n in range(39, 5000, 2)
                     if all(n % d for d in range(3, isqrt(n) + 1, 2))]
    # strong pseudoprime to every prime base up to 23
    assert not _is_prime(3825123056546413051)


@st.composite
def wide_matrices(draw):
    """Fewer rows than columns, entries up to 2**100, and sometimes a row
    that is a combination of two others: kernel entries are ratios of
    minors far above one prime, so the lift needs several primes."""
    ncols = draw(st.integers(2, 5))
    entries = st.integers(-2 ** 100, 2 ** 100)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=ncols - 1))
    if draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


@settings(max_examples=100, deadline=None)
@given(wide_matrices())
def test_wide_entries_match_reference(matrix):
    ncols = len(matrix[0])
    assert nullspace_rational(matrix) == _reference_nullspace(matrix, ncols)


@st.composite
def tall_low_rank(draw):
    """A product A*B of small integer matrices with many more rows than
    columns and rank at most the inner size, shaped like a tau scan."""
    ncols = draw(st.integers(2, 8))
    inner = draw(st.integers(1, ncols))
    nrows = draw(st.integers(ncols, 40))
    small = st.integers(-9, 9)
    a = draw(st.lists(st.lists(small, min_size=inner, max_size=inner),
                      min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols),
                      min_size=inner, max_size=inner))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@settings(max_examples=100, deadline=None)
@given(tall_low_rank())
def test_tall_rank_deficient_match_reference(matrix):
    ncols = len(matrix[0])
    assert nullspace_rational(matrix) == _reference_nullspace(matrix, ncols)


def test_unlucky_first_prime():
    cases = [
        # mod P the pivots are (0, 2), later than (0, 1) over Q
        ([[1, 1, 0], [1, 1 + P, 1]], [[1, -1, P]]),
        # mod P the rank falls to 1, so the prime has fewer pivots
        ([[1, 1], [1, 1 + P]], []),
        # mod P the kernel entry P reads 0, so only the CRT lift recovers it
        ([[1, P, 0], [0, 1, 1]], [[P, -1, 1]]),
        # P lifts wrongly and the next prime is unlucky; it must not be
        # combined with P
        ([[1, 1, 0], [1, 1 + P2, 1]], [[1, -1, P2]]),
    ]
    for matrix, basis in cases:
        assert (nullspace_rational(matrix) == basis
                == _reference_nullspace(matrix, len(matrix[0])))


def test_kernel_entry_above_one_prime():
    # 3**40 and 2**70 + 1 exceed sqrt(P/2), so one prime cannot lift them
    matrix = [[3 ** 40, 2 ** 70 + 1]]
    assert nullspace_rational(matrix) == [[2 ** 70 + 1, -3 ** 40]]
    assert nullspace_rational(matrix) == _reference_nullspace(matrix, 2)


@st.composite
def late_rank_blocks(draw):
    """A block whose first ncols rows are rank-deficient: zero rows,
    repeated rows and rows of a low-rank product G*B, with fewer rows in
    B than columns.  Random rows follow, so the full rank shows only after
    the first ncols rows."""
    ncols = draw(st.integers(2, 6))
    small = st.integers(-5, 5)
    row = st.lists(small, min_size=ncols, max_size=ncols)
    gens = draw(st.lists(row, min_size=1, max_size=ncols - 1))
    head = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(("zero", "repeat", "product")))
        if kind == "zero":
            head.append([0] * ncols)
        elif kind == "repeat" and head:
            head.append(list(draw(st.sampled_from(head))))
        else:
            g = draw(st.lists(small, min_size=len(gens), max_size=len(gens)))
            head.append([sum(x * b[c] for x, b in zip(g, gens))
                         for c in range(ncols)])
    return head + draw(st.lists(row, min_size=1, max_size=2 * ncols))


@settings(max_examples=200, deadline=None)
@given(late_rank_blocks())
def test_late_rank_widens_to_reference(matrix):
    ncols = len(matrix[0])
    expected = _reference_nullspace(matrix, ncols)
    # the block as it stands, zero rows included, then through the split
    assert [vec for _, vec in _block_nullspace(matrix, ncols)] == expected
    assert nullspace_rational(matrix) == expected


def test_tau_block_widens_twice(monkeypatch):
    # tau(j n) for j <= 26 and n <= 289 of (1,5,26): rank 11, but the
    # first 76 rows leave a larger kernel, so 26 and 52 rows are too few
    values = TauTable(RQSpec(1, 5, 26)).fill(26 * 289).values
    matrix = [values[n:26 * n + 1:n] for n in range(1, 290)]
    expected = _reference_nullspace(matrix, 26)
    assert len(expected) == 15
    assert nullspace_rational(matrix[:76]) != expected
    assert nullspace_rational(matrix[:77]) == expected
    solved = []
    certified_kernel = linalg._certified_kernel

    def spy(rows, ncols, rest):
        solved.append(len(rows))
        return certified_kernel(rows, ncols, rest)

    monkeypatch.setattr(linalg, "_certified_kernel", spy)
    assert nullspace_rational(matrix) == expected
    assert solved == [26, 52, 104]
