"""Unit tests for the exact truncated series core."""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqwork import _backend, series
from rqwork.quantities import agile_series
from rqwork.series import (FormalSeries, SeriesError, TruncationError,
                           constant, make_series, zero)


def agree_to(a, b, order):
    """a - b is known to ``order`` and vanishes at every exponent up to it.

    The residual is read by its lead exponent, as the exact verdicts do.
    """
    diff = a - b
    assert diff.trunc >= order
    return diff.is_zero or diff.lead_exponent > order


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
        # known as far as s**2 * s**-2, the relative order of s
        assert (s ** 0).trunc == 8
        t = make_series([(1, 2), (2, 1)], 5)
        assert t ** 0 == t ** 2 * t ** -2
        u = make_series([(-2, 1), (Fraction(-3, 2), 1)], Fraction(-3, 2))
        assert u ** 0 == constant(1, Fraction(1, 2))


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
        assert agree_to(a, b, 4)
        assert not agree_to(a, b, 5)

    def test_zero_keeps_fractional_truncation(self):
        a = make_series([(Fraction(1, 3), 1), (Fraction(2, 3), 2)],
                        Fraction(7, 3))
        assert (a - a).trunc == Fraction(7, 3)
        assert agree_to(a, a, Fraction(7, 3))


class TestRendering:
    def test_signed_sum_text(self):
        # exponents relative to the lead, unit coefficients dropped,
        # Fraction coefficients printed as ratios
        s = make_series([(Fraction(-1, 3), Fraction(-3, 2)), (0, 1),
                         (Fraction(1, 3), -1), (Fraction(2, 3), 2),
                         (Fraction(4, 3), Fraction(-5, 7)),
                         (Fraction(5, 3), 1)], 2)
        assert str(s) == ("q^(-1/3) * (-3/2 + q^(1/3) - q^(2/3) + 2*q^(3/3)"
                          " - 5/7*q^(5/3) + q^(6/3)) + O(q^(7/3))")
        assert str(-s) == ("q^(-1/3) * (3/2 - q^(1/3) + q^(2/3) - 2*q^(3/3)"
                           " + 5/7*q^(5/3) - q^(6/3)) + O(q^(7/3))")
        assert str(make_series([(1, -1), (2, 10 ** 20)], 3)) \
            == "q^(1/1) * (-1 + 100000000000000000000*q^(1/1)) + O(q^(4/1))"
        assert str(zero(Fraction(7, 3))) == "0 + O(q^(8/3))"


class TestPochhammer:
    def test_euler_function_pentagonal(self):
        # (q;q)_inf = sum (-1)^k q^(k(3k-1)/2), the Euler product kernel
        # with every factor (1 - q^e), e <= 60, once
        f = FormalSeries(1, 0, series._euler_product(
            dict.fromkeys(range(1, 61), 1), 60))
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
        # (q^3; q^5)_inf = 1 - q^3 - q^8 + q^11 + ..., the oracle that the
        # agile property test below multiplies out; times
        # (q^2; q^5)_inf = 1 - q^2 - q^7 + q^9 - q^12 + ... by hand, it is
        # the agile [3,5;q]
        assert plain_pochhammer(3, 5, 12) == (
            {0: 1, 3: -1, 8: -1, 11: 1}, 12)
        assert agile_series(3, 5, 12) == make_series(
            [(0, 1), (2, -1), (3, -1), (5, 1), (7, -1), (8, -1), (9, 1),
             (10, 2), (11, 1), (12, -2)], 12)

    def test_fractional_step(self):
        f = agile_series(Fraction(1, 2), Fraction(3, 2), 3)
        g = agile_series(1, 3, 6).substitute_power(Fraction(1, 2))
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
    assert agree_to(lhs, rhs, min(lhs.trunc, rhs.trunc))


@settings(max_examples=60, deadline=None)
@given(series_st())
def test_inverse_property(s):
    if s.coeff(0) == 0:
        s = s + 1
    if s.coeff(0) == 0:
        return
    prod = s * s.inverse()
    one = constant(1, prod.trunc)
    assert agree_to(prod, one, prod.trunc)


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
    assert agree_to(lhs, rhs, min(lhs.trunc, rhs.trunc))


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
    # the verdicts read a residual's first nonzero term at its lead
    assert got.is_zero or got.coeffs[0] != 0
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
    assert_plain(s.shifted(c), ({e + c: v for e, v in x[0].items()}, x[1] + c))
    assert_plain(s.rebased(6), x)
    if x[0]:
        assert_plain(s.substitute_power(m),
                     ({e * m: v for e, v in x[0].items()}, x[1] * m))
        assert_plain(s.inverse(), plain_inverse(x))
    if y[0]:
        assert_plain(s / t, plain_mul(x, plain_inverse(y)))
        if x[0]:
            # the quotient of series on two lattices
            assert_plain(s.substitute_power(m) / t,
                         plain_mul(({e * m: v for e, v in x[0].items()},
                                    x[1] * m), plain_inverse(y)))
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
def test_pochhammer_matches_plain_product(a, b, order):
    # the agile [a, a+b; q] against its two progressions multiplied out
    p = a + b
    assert_plain(agile_series(a, p, order),
                 plain_mul(plain_pochhammer(a, p, order),
                           plain_pochhammer(b, p, order)))


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


# the multiply path of _backend (common stride, sparse schoolbook and the
# Kronecker product) against the Fraction oracle above

@st.composite
def kernel_list(draw, max_terms=300):
    """A coefficient list on a strided support after ``offset`` zeros.

    Hypothesis draws the shape; a seeded generator fills in the values,
    so a list of a few hundred wide terms stays cheap to draw and replay.
    Dense int lists of ``KRONECKER_MIN_TERMS`` or more take the Kronecker
    branch, and a Fraction anywhere keeps a product on the schoolbook.
    """
    stride = draw(st.integers(min_value=1, max_value=5))
    offset = draw(st.integers(min_value=0, max_value=3))
    count = draw(st.integers(min_value=1, max_value=max_terms // stride))
    bits = draw(st.sampled_from([1, 4, 64, 100]))
    density = draw(st.sampled_from([1, 1, 0.3, 0]))
    # every term at the widest value of one sign drives the output
    # coefficients up to the bound the Kronecker fields are sized by
    extreme = draw(st.sampled_from([None, None, 1, -1]))
    with_fraction = draw(st.integers(min_value=0, max_value=5)) == 0
    rnd = draw(st.randoms(use_true_random=True))
    out = [0] * (offset + stride * count)
    for i in range(offset, len(out), stride):
        if rnd.random() < density:
            out[i] = (extreme * 2 ** bits if extreme
                      else rnd.randint(-2 ** bits, 2 ** bits))
    if with_fraction and out:
        out[rnd.randrange(len(out))] = Fraction(rnd.randint(-9, 9),
                                                rnd.randint(2, 9))
    return out


def plain_convolve(a, b, n):
    terms = plain_mul((plain(a, 0)[0], n), (plain(b, 0)[0], n))[0]
    return [terms.get(k, 0) for k in range(n)]


def assert_int_closed(inputs, got):
    if all(type(c) is int for x in inputs for c in x):
        assert all(type(c) is int for c in got)


def spread(x, stride):
    out = [0] * (len(x) * stride)
    out[::stride] = x
    return out


@settings(max_examples=80, deadline=None)
@given(kernel_list(), kernel_list(), st.integers(min_value=1, max_value=3),
       st.data())
def test_convolve_matches_plain_product(a, b, stride, data):
    # a stride shared by both factors, beyond any each has of its own
    a, b = spread(a, stride), spread(b, stride)
    short, long = sorted((len(a), len(b)))
    n = data.draw(st.sampled_from([long, short // 2, short, short + long, 0]))
    got = _backend.convolve(tuple(a), b, n)
    assert got == plain_convolve(a, b, n)
    assert_int_closed((a, b), got)


@settings(max_examples=80, deadline=None)
@given(kernel_list(max_terms=60), st.sampled_from([1, -1, 3, -2 ** 70]),
       st.data())
def test_reciprocal_matches_plain_inverse(b, b0, data):
    b = [b0] + b[1:]
    n = data.draw(st.integers(min_value=1, max_value=len(b) + 4))
    got = _backend.reciprocal(tuple(b), n)
    terms = plain_inverse((plain(b, 0)[0], Fraction(n - 1)))[0]
    assert got == [terms.get(k, 0) for k in range(n)]
    if b0 in (1, -1):
        assert_int_closed((b,), got)


@settings(max_examples=80, deadline=None)
@given(kernel_list(max_terms=60), kernel_list(max_terms=40),
       st.sampled_from([1, -1, 3, -2 ** 70]),
       st.integers(min_value=1, max_value=3), st.data())
def test_divide_matches_plain_quotient(a, b, b0, stride, data):
    # a stride shared by both operands, beyond any each has of its own
    if data.draw(st.booleans()):
        a = [0] * len(a)
    a, b = spread(a, stride), spread([b0] + b[1:], stride)
    n = data.draw(st.sampled_from(
        [1, len(a) // 2 or 1, len(b), len(a) + len(b) + stride]))
    got = _backend.divide(tuple(a), b, n)
    inv = plain_inverse((plain(b, 0)[0], Fraction(n - 1)))
    terms = plain_mul((plain(a, 0)[0], Fraction(n - 1)), inv)[0]
    assert got == [terms.get(k, 0) for k in range(n)]
    if b0 in (1, -1):
        assert_int_closed((a, b), got)


@settings(max_examples=40, deadline=None)
@given(kernel_list(), kernel_list(max_terms=60),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2))
def test_long_series_match_plain_fraction_arithmetic(a, b, la, lb):
    s, t = FormalSeries(1, la, a), FormalSeries(1, lb, b)
    x, y = plain(a, la), plain(b, lb)
    assert_plain(s * t, plain_mul(x, y))
    assert_plain(s * s, plain_mul(x, x))
    if y[0]:
        assert_plain(t.inverse(), plain_inverse(y))
        assert_plain(s / t, plain_mul(x, plain_inverse(y)))


wide_coeff_st = st.one_of(
    coeff_st, st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.fractions(min_value=-9, max_value=9, max_denominator=7))


@st.composite
def formal_st(draw):
    """A series on a lattice of denominator 1-6 with any lead."""
    return FormalSeries(draw(st.integers(min_value=1, max_value=6)),
                        draw(st.integers(min_value=-6, max_value=6)),
                        draw(st.lists(wide_coeff_st, max_size=10)))


def fields(s):
    return s.denom, s.lead, [(type(c), c) for c in s.coeffs]


@settings(max_examples=200, deadline=None)
@given(formal_st(), formal_st())
def test_quotient_is_product_with_inverse(s, t):
    if t.is_zero:
        with pytest.raises(SeriesError):
            s / t
        return
    assert fields(s / t) == fields(s * t.inverse())


def test_multiply_path_branches(monkeypatch):
    """Each step of the path is taken where the operands call for it."""
    calls = []
    for name in ("_product", "_kronecker"):
        def spy(*args, _name=name, _orig=getattr(_backend, name)):
            calls.append((_name, len(args[0]), len(args[1])))
            return _orig(*args)
        monkeypatch.setattr(_backend, name, spy)

    def run(a, b, n):
        calls.clear()
        got = _backend.convolve(a, b, n)
        assert got == plain_convolve(a, b, n)
        return [c[0] for c in calls]

    k = _backend.KRONECKER_MIN_TERMS
    dense = [(-1) ** i * (i + 1) for i in range(k)]
    # common stride 3: the kernel sees every third coefficient
    assert run([1, 0, 0, 2, 0, 0, 3], [4, 0, 0, -5], 7) == ["_product"]
    assert calls == [("_product", 3, 2)]
    # dense ints with k terms in the sparser factor: one bigint product
    assert run(dense, dense[::-1], k) == ["_product", "_kronecker"]
    # one term fewer, a Fraction, or a binomial factor: the schoolbook
    assert run(dense[:-1], dense, k) == ["_product"]
    assert run(dense[:-1] + [Fraction(1, 2)], dense, k) == ["_product"]
    assert run([1, -1], dense, k) == ["_product"]
    # an all-zero factor needs no product at all
    assert run([0, 0], dense, k) == []
    # the middle coefficient 128 * 16**2 = 2**15 is 16 bits wide, so with
    # the sign bit its field takes 3 bytes; 2 bytes would overflow
    assert run([16] * 128, [16] * 128, 255) == ["_product", "_kronecker"]


@settings(max_examples=60, deadline=None)
@given(series_st(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=-2, max_value=2))
def test_pow_zero_is_product_rule(s, n, shift):
    if s.coeff(0) == 0:
        s = s + 1
    s = s.shifted(shift)
    if s.is_zero:
        return
    assert s ** n * s ** -n == s ** 0


def test_environment_constants():
    # perfbench/run.py records these in every run record
    assert _backend.BACKEND == "python"
    assert series.COEFF_BACKEND == "fractions"
    assert series.Rational is Fraction
