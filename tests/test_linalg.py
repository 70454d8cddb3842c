"""The block-split nullspace against a plain Fraction Gauss-Jordan solve."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from rqwork.linalg import nullspace_rational


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
