"""Reference computations made apart from rqwork, for the output checks.

Nothing here imports rqwork.  Exact references use plain Python ints and
fractions; numeric ones use mpmath's own q-Pochhammer and theta functions,
so a fault in rqwork's kernels, series builders or AGM code cannot make its
output agree with these by accident.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

# one private context, so rqwork's own contexts and mpmath.mp stay untouched
MP = mpmath.MPContext()
MP.dps = 80


def chi(spec, n):
    """+1 on residues +-a, -1 on +-b, 0 elsewhere, mod p."""
    a, b, p = spec
    r = n % p
    if r in (a % p, (p - a) % p):
        return 1
    if r in (b % p, (p - b) % p):
        return -1
    return 0


def tau_sieve(spec, n_max):
    """tau(n) = sum_{d | n} chi(d) d for n <= n_max (index 0 unused)."""
    totals = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        x = chi(spec, d)
        if x:
            for m in range(d, n_max + 1, d):
                totals[m] += x * d
    return totals


def eta_product(exponent, order):
    """Coefficients 0..order of prod_{n>=1} (1 - q^n)^exponent(n), as ints.

    Multiplying by (1 - q^n) and dividing by it are each one pass over the
    coefficient list, so the product costs O(order) per factor.
    """
    c = [0] * (order + 1)
    c[0] = 1
    for n in range(1, order + 1):
        e = exponent(n)
        for _ in range(abs(e)):
            if e > 0:
                for k in range(order, n - 1, -1):
                    c[k] -= c[k - n]
            else:
                for k in range(n, order + 1):
                    c[k] += c[k - n]
    return c


def character_product(spec, order):
    """prod (1 - q^n)^chi(n): the agile quotient [a,p]/[b,p] without q^Q."""
    return eta_product(lambda n: chi(spec, n), order)


def q_exponent(spec):
    a, b, p = (Fraction(x) for x in spec)
    return -(a - b) / 2 + (a * a - b * b) / (2 * p)


def rq_value(spec, q):
    """R(a,b,p;q) through mpmath.qp at the working precision of ``MP``."""
    a, b, p = spec
    q = MP.mpf(q)
    Q = q_exponent(spec)
    top = MP.qp(q ** a, q ** p) * MP.qp(q ** (p - a), q ** p)
    bot = MP.qp(q ** b, q ** p) * MP.qp(q ** (p - b), q ** p)
    return q ** (MP.mpf(Q.numerator) / Q.denominator) * top / bot


def nome(r):
    """q = exp(-pi sqrt(r)) for a rational r."""
    r = Fraction(r)
    return MP.exp(-MP.pi * MP.sqrt(MP.mpf(r.numerator) / r.denominator))


def singular_modulus(r):
    """k_r from its closed form for r <= 4, else theta2^2/theta3^2."""
    closed = {
        1: lambda: 1 / MP.sqrt(2),
        2: lambda: MP.sqrt(2) - 1,
        3: lambda: (MP.sqrt(6) - MP.sqrt(2)) / 4,
        4: lambda: 3 - 2 * MP.sqrt(2),
    }
    if Fraction(r) in closed:
        return closed[int(r)]()
    q = nome(r)
    return MP.jtheta(2, 0, q) ** 2 / MP.jtheta(3, 0, q) ** 2


def gg_radical():
    """The sign-corrected radical sqrt(4+2 sqrt 2) - 1 - sqrt 2."""
    return MP.sqrt(4 + 2 * MP.sqrt(2)) - 1 - MP.sqrt(2)


def poly_residual(terms, u, v):
    """|P(u, v)| and the largest |term|, for P given as (i, j, c) triples."""
    vals = [c * u ** i * v ** j for i, j, c in terms]
    return abs(MP.fsum(vals)), max(abs(x) for x in vals)


def proportional(p, q):
    """True if two {(i, j): c} polynomials differ by a nonzero factor."""
    if set(p) != set(q) or not p:
        return False
    key = next(iter(p))
    ratio = Fraction(p[key], q[key])
    return all(Fraction(p[m], q[m]) == ratio for m in p)


def rank(rows):
    """Rank of an integer or rational matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def in_span(basis, vec):
    return rank(basis + [vec]) == rank(basis)


def tau_residual(table, coeffs, n):
    """sum_j coeffs[j-1] tau(j n) for one n."""
    return sum(c * table[j * n] for j, c in enumerate(coeffs, start=1) if c)
