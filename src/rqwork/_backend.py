"""Inner loops for series and matrix arithmetic.

All functions operate on plain lists of exact numbers (``int`` or
``fractions.Fraction``) and never introduce floats.
"""

from fractions import Fraction

# perfbench/run.py records this name in every run record
BACKEND = "python"


def convolve(a, b, n):
    """First ``n`` coefficients of the product of coefficient lists a, b."""
    if len(a) > len(b):
        a, b = b, a
    out = [0] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if not ai:
            continue
        m = min(n - i, len(b))
        for j in range(m):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def reciprocal(b, n):
    """First ``n`` coefficients of 1/B for a list with invertible b[0].

    Integer input stays integer when b[0] is a unit (+1 or -1).
    """
    b0 = b[0]
    inv0 = b0 if b0 in (1, -1) else Fraction(1, b0)
    out = [inv0]
    lb = len(b)
    for k in range(1, n):
        s = 0
        m = min(k, lb - 1)
        for i in range(1, m + 1):
            bi = b[i]
            if bi:
                s += bi * out[k - i]
        out.append(-s * inv0)
    return out


def bareiss_rows(rows, pivot_row, col, piv, prev, start):
    """One fraction-free elimination step applied to ``rows`` in place.

    row[j] <- (piv*row[j] - row[col]*pivot_row[j]) / prev, exact by the
    Bareiss determinant identity (``prev`` divides evenly).
    """
    ncols = len(pivot_row)
    for row in rows:
        f = row[col]
        if f:
            for j in range(start, ncols):
                row[j] = (piv * row[j] - f * pivot_row[j]) // prev
            row[col] = 0
        elif piv != prev:
            for j in range(start, ncols):
                if row[j]:
                    row[j] = (piv * row[j]) // prev
