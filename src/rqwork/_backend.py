"""Inner loops for series and matrix arithmetic.

All functions operate on sequences (lists or tuples) of exact numbers
(``int`` or ``fractions.Fraction``) and never introduce floats.

``convolve`` and ``divide`` share one multiply path, chosen from the
operands alone:

1. Common stride: when every nonzero index of both operands is a multiple
   of some s > 1, the kernel runs on every s-th coefficient and spreads
   the result back.
2. Sparse schoolbook: the outer loop runs over the nonzero terms of the
   operand with fewer of them; ``divide`` reads only the nonzero terms
   of its divisor, in one recurrence that also gives ``reciprocal``.
3. Kronecker substitution: when both factors are all ``int`` and the
   sparser one has at least ``KRONECKER_MIN_TERMS`` nonzero terms, each
   factor is packed into one ``int`` and multiplied once by CPython's
   bigint product (Brent & Zimmermann, *Modern Computer Arithmetic*,
   section 1.3).
"""

from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import add, mul

# perfbench/run.py records this name in every run record
BACKEND = "python"

# Fewest nonzero terms in the sparser factor for the Kronecker product;
# dense signed lists break even at 16-24 terms (BENCH_multiply.json).
KRONECKER_MIN_TERMS = 24


def convolve(a, b, n):
    """First ``n`` coefficients of the product of coefficient lists a, b."""
    a, b = a[:n], b[:n]
    ia = list(compress(range(len(a)), a))
    ib = list(compress(range(len(b)), b))
    if not ia or not ib:
        return [0] * n
    s = gcd(*ia, *ib)
    if s < 2:
        return _product(a, b, n)
    out = [0] * n
    out[::s] = _product(a[::s], b[::s], len(range(0, n, s)))
    return out


def _product(a, b, n):
    """First ``n`` coefficients of a*b, both nonzero and at most n long."""
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if na > nb:
        a, b, na = b, a, nb
    if na >= KRONECKER_MIN_TERMS and all(
            type(c) is int for x in (a, b) for c in x):
        return _kronecker(a, b, na, n)
    out = [0] * n
    for i in compress(range(len(a)), a):
        m = min(n - i, len(b))
        out[i:i + m] = map(add, out[i:i + m], map(mul, repeat(a[i], m), b))
    return out


def _kronecker(a, b, terms, n):
    """First ``n`` coefficients of a*b for ``int`` lists, by one product.

    Every coefficient of a*b is a sum of at most ``terms`` products, so
    its magnitude is below ``2**(w - 1)`` for the field width ``w`` below.
    Each list is packed as the integer sum x_i * 2**(w*i), evaluated with
    signed fields, and the product's fields are read back after a bias of
    ``2**(w - 1)`` per field has made every one of them nonnegative.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * terms
    k = (bound.bit_length() + 8) // 8   # bytes per field, sign bit included
    half = 1 << (8 * k - 1)
    c = _pack(a, k) * _pack(b, k)
    bias = int.from_bytes((half.to_bytes(k, "little")) * n, "little")
    raw = ((c + bias) & ((1 << (8 * k * n)) - 1)).to_bytes(k * n, "little")
    return [int.from_bytes(raw[i:i + k], "little") - half
            for i in range(0, k * n, k)]


def _pack(x, k):
    """sum x_i * 2**(8*k*i) for ints with |x_i| < 2**(8*k - 1)."""
    u = int.from_bytes(
        b"".join([c.to_bytes(k, "little", signed=True) for c in x]), "little")
    # a negative x_i was stored as x_i + 2**(8k): take one off field i + 1
    low = int.from_bytes((b"\x01" + bytes(k - 1)) * len(x), "little")
    return u - (((u >> (8 * k - 1)) & low) << (8 * k))


def divide(a, b, n):
    """First ``n`` coefficients of A/B for lists with invertible b[0].

    One sparse recurrence y_k = (a_k - sum_i b_i y_(k-i)) / b[0] over the
    nonzero terms b_i past b[0] (Knuth, TAOCP vol. 2, section 4.7), run on
    the common stride of both lists like ``convolve``.  Integer input
    stays integer when b[0] is a unit (+1 or -1).

    When b has a stride of its own that a lacks, the recurrence runs on
    every coefficient and reads each term of b at every step, up to s
    times the inner steps of a reciprocal on b's stride s followed by a
    product.
    """
    a = a[:n]
    b0 = b[0]
    inv0 = b0 if b0 in (1, -1) else Fraction(1, b0)
    ia = list(compress(range(len(a)), a))
    ib = list(compress(range(1, min(n, len(b))), b[1:n]))
    out = [0 * inv0] * n   # zeros of the same type as the terms
    if not ia:
        return out
    s = gcd(*ia, *ib) or n
    # B(q) = C(q^s): only the nonzero terms of C past C(0) are read
    terms = [(i // s, b[i]) for i in ib]
    y = list(a[::s])
    y += [0] * (len(range(0, n, s)) - len(y))
    for k, t in enumerate(y):
        for i, bi in terms:
            if i > k:
                break
            t -= bi * y[k - i]
        y[k] = t * inv0
    out[::s] = y
    return out


def reciprocal(b, n):
    """First ``n`` coefficients of 1/B; perfbench wraps this name."""
    return divide((1,), b, n)


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
