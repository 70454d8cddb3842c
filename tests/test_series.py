"""Unit tests for the exact truncated series core."""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqwork import _backend, series
from rqwork.series import (FormalSeries, SeriesError, TruncationError,
                           constant, make_series, pochhammer_inf, zero)


def geometric(order):
    # 1/(1-q) = 1 + q + q^2 + ...
    return make_series([(n, 1) for n in range(order + 1)], order)


class TestConstruction:
    def test_make_series_basic(self):
        s = make_series([(0, 1), (2, -3)], 5)
        assert s.coeff(0) == 1
        assert s.coeff(2) == -3
        assert s.coeff(1) == 0
        assert s.trunc == 5
        assert s.lead_exponent == 0

    def test_float_rejected(self):
        # floats are not exact, as coefficient, exponent or scalar
        with pytest.raises(TypeError):
            make_series([(0, 0.5)], 1)
        with pytest.raises(TypeError):
            make_series([(0.5, 1)], 1)
        with pytest.raises(TypeError):
            geometric(3) * 0.5

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(SeriesError):
            make_series([(1, 1), (1, 2)], 5)

    def test_exponent_beyond_order_rejected(self):
        with pytest.raises(SeriesError):
            make_series([(6, 1)], 5)

    def test_fractional_lattice(self):
        s = make_series([(Fraction(1, 3), 2)], Fraction(7, 3))
        assert s.coeff(Fraction(1, 3)) == 2
        assert s.coeff(Fraction(2, 3)) == 0
        assert s.trunc == Fraction(7, 3)

    def test_zero_and_constant(self):
        z = zero(10)
        assert z.is_zero
        assert constant(0, 10).is_zero
        c = constant(7, 10)
        assert c.coeff(0) == 7
        assert not c.is_zero


class TestCoeffSemantics:
    def test_off_lattice_is_zero(self):
        s = make_series([(1, 1)], 5)
        assert s.coeff(Fraction(1, 2)) == 0

    def test_below_lead_is_zero(self):
        s = make_series([(2, 1)], 5)
        assert s.coeff(0) == 0
        assert s.coeff(-3) == 0

    def test_beyond_trunc_raises(self):
        s = make_series([(1, 1)], 5)
        with pytest.raises(TruncationError):
            s.coeff(6)

    def test_terms_generator_skips_zeros(self):
        s = make_series([(0, 1), (1, 0), (3, 2)], 5)
        assert list(s.terms()) == [(0, 1), (3, 2)]


class TestArithmetic:
    def test_add_aligns_truncation(self):
        a = make_series([(0, 1)], 10)
        b = make_series([(1, 1)], 4)
        c = a + b
        assert c.trunc == 4
        assert c.coeff(0) == 1 and c.coeff(1) == 1

    def test_mul_against_closed_form(self):
        g = geometric(20)
        one_minus_q = make_series([(0, 1), (1, -1)], 20)
        prod = g * one_minus_q
        assert prod.coeff(0) == 1
        assert all(prod.coeff(n) == 0 for n in range(1, 21))

    def test_scalar_ops(self):
        s = make_series([(1, 2)], 5)
        assert (3 * s).coeff(1) == 6
        assert (s + 1).coeff(0) == 1
        assert (1 - s).coeff(1) == -2
        assert (s / 2).coeff(1) == 1

    def test_division_with_shifted_lead(self):
        num = make_series([(3, 1)], 10)
        den = make_series([(1, 1), (2, -1)], 10)
        quo = num / den
        assert quo.lead_exponent == 2
        assert quo.coeff(2) == 1
        assert quo.coeff(3) == 1  # q^2/(1-q) expansion

    def test_inverse_roundtrip(self):
        s = make_series([(0, 2), (1, 1), (3, -4)], 15)
        prod = s * s.inverse()
        assert prod.coeff(0) == 1
        assert all(prod.coeff(n) == 0 for n in range(1, 14))

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(SeriesError):
            zero(5).inverse()

    def test_pow_negative(self):
        s = make_series([(0, 1), (1, 1)], 10)
        assert (s ** -2) * (s ** 2) == constant(1, 10) + zero(10)

    def test_pow_zero(self):
        s = make_series([(2, 5)], 10)
        assert (s ** 0).coeff(0) == 1


class TestStructureOps:
    def test_substitute_power(self):
        s = make_series([(1, 1), (2, 3)], 6)
        t = s.substitute_power(2)
        assert t.coeff(2) == 1 and t.coeff(4) == 3
        assert t.trunc == 12

    def test_substitute_power_of_zero(self):
        # O(q^2) under q -> q^2 is O(q^4), and O(q^4) squared is O(q^8)
        z = zero(1)
        assert z.substitute_power(2) == zero(3)
        assert (z * z).substitute_power(2) == \
            z.substitute_power(2) * z.substitute_power(2)

    def test_substitute_fractional_power(self):
        s = make_series([(2, 1)], 6)
        t = s.substitute_power(Fraction(1, 2))
        assert t.coeff(1) == 1
        assert t.trunc == 3

    def test_q_derivative(self):
        # theta operator q d/dq multiplies coeff at q^e by e
        s = make_series([(Fraction(1, 2), 4), (3, 2)], 5)
        d = s.q_derivative()
        assert d.coeff(Fraction(1, 2)) == 2
        assert d.coeff(3) == 6

    def test_truncated_floors_to_lattice(self):
        s = make_series([(0, 1), (1, 1), (2, 1)], 5)
        t = s.truncated(Fraction(3, 2))
        assert t.trunc == 1
        with pytest.raises(TruncationError):
            t.coeff(2)

    def test_rebased_preserves_value(self):
        s = make_series([(Fraction(1, 2), 3)], 4)
        t = s.rebased(6)
        assert t.denom == 6
        assert list(t.terms()) == list(s.terms())
        assert t.trunc == s.trunc
        with pytest.raises(SeriesError):
            s.rebased(5)

    def test_agrees_with(self):
        a = make_series([(0, 1), (5, 9)], 10)
        b = make_series([(0, 1), (5, 7)], 10)
        assert a.agrees_with(b, 4)
        assert not a.agrees_with(b, 5)


class TestPochhammer:
    def test_euler_function_pentagonal(self):
        # (q;q)_inf = sum (-1)^k q^(k(3k-1)/2)
        f = pochhammer_inf(1, 1, 60)
        expect = {0: 1}
        k = 1
        while True:
            e1 = k * (3 * k - 1) // 2
            e2 = k * (3 * k + 1) // 2
            if e1 > 60:
                break
            sign = (-1) ** k
            if e1 <= 60:
                expect[e1] = sign
            if e2 <= 60:
                expect[e2] = sign
            k += 1
        for n in range(61):
            assert f.coeff(n) == expect.get(n, 0), n

    def test_single_factor_expansion(self):
        # (q^3; q^5)_inf starts 1 - q^3 - q^8 + ...
        f = pochhammer_inf(3, 5, 12)
        assert f.coeff(0) == 1
        assert f.coeff(3) == -1
        assert f.coeff(8) == -1
        assert f.coeff(11) == 1  # q^3 * q^8

    def test_fractional_step(self):
        f = pochhammer_inf(Fraction(1, 2), Fraction(1, 2), 3)
        g = pochhammer_inf(1, 1, 6).substitute_power(Fraction(1, 2))
        assert f == g


# property tests on small random series

coeff_st = st.integers(min_value=-9, max_value=9)


def series_st():
    return st.lists(coeff_st, min_size=1, max_size=8).map(
        lambda cs: make_series(list(enumerate(cs)), len(cs)))


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.agrees_with(rhs, min(lhs.trunc, rhs.trunc))


@settings(max_examples=60, deadline=None)
@given(series_st())
def test_inverse_property(s):
    if s.coeff(0) == 0:
        s = s + 1
    if s.coeff(0) == 0:
        return
    prod = s * s.inverse()
    one = constant(1, prod.trunc)
    assert prod.agrees_with(one, prod.trunc)


@settings(max_examples=60, deadline=None)
@given(series_st(), st.integers(min_value=1, max_value=3))
def test_substitute_power_is_homomorphism(s, m):
    t = s.substitute_power(m)
    assert (s * s).substitute_power(m) == t * t


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_derivative_leibniz(a, b):
    lhs = (a * b).q_derivative()
    rhs = a.q_derivative() * b + a * b.q_derivative()
    assert lhs.agrees_with(rhs, min(lhs.trunc, rhs.trunc))


# a plain Fraction schoolbook oracle: ({exponent: coefficient}, trunc) on
# the integer lattice, a zero series having valuation trunc + 1

def plain(cs, lead):
    return ({Fraction(lead + i): Fraction(c) for i, c in enumerate(cs) if c},
            Fraction(lead + len(cs) - 1))


def plain_valuation(x):
    terms, trunc = x
    return min(terms) if terms else trunc + 1


def plain_add(x, y):
    trunc = min(x[1], y[1])
    out = {}
    for terms in (x[0], y[0]):
        for e, c in terms.items():
            if e <= trunc:
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}, trunc


def plain_mul(x, y):
    trunc = min(x[1] + plain_valuation(y), y[1] + plain_valuation(x))
    out = {}
    for e, c in x[0].items():
        for f, d in y[0].items():
            if e + f <= trunc:
                out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}, trunc


def plain_scale(x, k):
    return {e: c * k for e, c in x[0].items() if c * k}, x[1]


def plain_inverse(x):
    terms, trunc = x
    v = min(terms)
    n = int(trunc - v) + 1
    b = [terms.get(v + i, Fraction(0)) for i in range(n)]
    out = []
    for k in range(n):
        s = Fraction(k == 0) - sum(b[i] * out[k - i] for i in range(1, k + 1))
        out.append(s / b[0])
    return {k - v: c for k, c in enumerate(out) if c}, n - 1 - v


def assert_plain(got, want):
    terms, trunc = want
    # the best truncation on the result's own lattice
    assert got.trunc == Fraction(floor(trunc * got.denom), got.denom)
    assert dict(got.terms()) == {e: c for e, c in terms.items()
                                 if e <= got.trunc}
    for c in got.coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction)


plain_st = st.tuples(st.lists(coeff_st, min_size=1, max_size=8),
                     st.integers(min_value=0, max_value=2))


@settings(max_examples=100, deadline=None)
@given(plain_st, plain_st,
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.integers(min_value=-2, max_value=4).filter(bool),
       st.sampled_from([Fraction(1, 2), 2, 3, Fraction(2, 3)]))
def test_matches_plain_fraction_arithmetic(a, b, c, k, m):
    s, t = (make_series([(lead + i, x) for i, x in enumerate(cs)],
                        lead + len(cs) - 1) for cs, lead in (a, b))
    x, y = plain(*a), plain(*b)
    assert_plain(s, x)
    assert_plain(s + t, plain_add(x, y))
    assert_plain(s - t, plain_add(x, plain_scale(y, -1)))
    assert_plain(s * t, plain_mul(x, y))
    assert_plain(s * c, plain_scale(x, c))
    assert_plain(c * s, plain_scale(x, c))
    if c:
        assert_plain(s / c, plain_scale(x, 1 / c))
    if x[0]:
        assert_plain(s.rebased(6), x)
        assert_plain(s.substitute_power(m),
                     ({e * m: v for e, v in x[0].items()}, x[1] * m))
        assert_plain(s.inverse(), plain_inverse(x))
    if k > 0 or x[0]:
        base = x if k > 0 else plain_inverse(x)
        want = base
        for _ in range(abs(k) - 1):
            want = plain_mul(want, base)
        assert_plain(s ** k, want)


def plain_pochhammer(a, p, order):
    """prod (1 - q^e), e = a, a+p, ..., by plain dict products.

    Known to the last whole power of q at or below ``order``, the
    truncation of a product that starts from the constant 1.
    """
    trunc = floor(order)
    terms = {Fraction(0): Fraction(1)}
    e = a
    while e <= trunc:
        shifted = {f + e: -c for f, c in terms.items() if f + e <= trunc}
        terms = plain_add((terms, trunc), (shifted, trunc))[0]
        e += p
    return terms, Fraction(trunc)


positive_st = st.fractions(min_value=0, max_value=3,
                           max_denominator=4).filter(bool)


@settings(max_examples=100, deadline=None)
@given(positive_st, positive_st,
       st.fractions(min_value=0, max_value=12, max_denominator=6))
def test_pochhammer_matches_plain_product(a, p, order):
    assert_plain(pochhammer_inf(a, p, order), plain_pochhammer(a, p, order))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=8),
                       st.integers(min_value=-3, max_value=3), max_size=5),
       st.integers(min_value=0, max_value=24))
def test_euler_product_matches_plain_product(mult, n):
    want = plain([1] + [0] * n, 0)
    for e, k in mult.items():
        cs = [1] + [0] * max(n, e)
        cs[e] = -1
        factor = plain(cs, 0)
        if k < 0:
            factor = plain_inverse(factor)
        for _ in range(abs(k)):
            want = plain_mul(want, factor)
    got = series._euler_product(mult, n)
    assert got == [want[0].get(i, 0) for i in range(n + 1)]
    assert all(type(c) is int for c in got)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff_st, min_size=1, max_size=8),
       st.integers(min_value=1, max_value=12))
def test_reciprocal_exact_on_ints(b, n):
    if b[0] == 0:
        b[0] = 1
    got = _backend.reciprocal(b, n)
    assert got == _backend.reciprocal([Fraction(x) for x in b], n)
    if b[0] in (1, -1):
        assert all(type(c) is int for c in got)
    else:
        assert all(isinstance(c, Fraction) for c in got)


def test_environment_constants():
    # perfbench/run.py records these in every run record
    assert _backend.BACKEND == "python"
    assert series.COEFF_BACKEND == "fractions"
    assert series.Rational is Fraction
