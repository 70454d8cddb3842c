"""Unit tests for the quantity builders and the identity registry."""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqwork import quantities as Q
from rqwork import series as S
from rqwork.characters import RQSpec, SpecError, TauTable, decompose_character
from test_series import assert_plain, plain_pochhammer

# leading coefficients of the prefactor-free quotients, derived from the
# infinite products by independent polynomial arithmetic
STAR_125 = [1, -1, 1, 0, -1, 1, -1, 1, 0, -1, 2, -3, 2, 0, -2, 4]
STAR_138 = [1, -1, 0, 1, -1, 1, 0, -2, 2, -1, 0, 2, -3, 2, 0, -2]
STAR_2311 = [1, 0, -1, 1, 0, -1, 1, 0, 0, 0, -1, 1, 0, -2, 2, 1]


def pochhammer(a, p, order):
    """The plain oracle's (q^a; q^p)_inf as a FormalSeries."""
    terms, trunc = plain_pochhammer(a, p, order)
    return S.make_series(terms.items(), trunc)


def agree_to(a, b, order):
    """a - b is known to ``order`` and vanishes at every exponent up to it.

    The residual is read by its lead exponent, as the exact verdicts do.
    """
    diff = a - b
    assert diff.trunc >= order
    return diff.is_zero or diff.lead_exponent > order


class TestQuotientSeries:
    @pytest.mark.parametrize("abp,expect", [
        ((1, 2, 5), STAR_125),
        ((1, 3, 8), STAR_138),
        ((2, 3, 11), STAR_2311),
    ])
    def test_star_series_oracles(self, abp, expect):
        s = Q.rq_star_series(RQSpec(*abp), 20)
        for n, c in enumerate(expect):
            assert s.coeff(n) == c, n

    def test_prefactor_shift(self):
        spec = RQSpec(1, 2, 5)
        r = Q.rq_series(spec, 10)
        assert r.lead_exponent == Fraction(1, 5)
        star = Q.rq_star_series(spec, 9)
        for n in range(10):
            assert r.coeff(Fraction(1, 5) + n) == star.coeff(n)

    def test_order_must_exceed_prefactor(self):
        with pytest.raises(SpecError):
            Q.rq_series(RQSpec(1, 2, 5), Fraction(1, 10))

    def test_agile_requires_window(self):
        with pytest.raises(SpecError):
            Q.agile_series(5, 5, 10)

    def test_character_product_matches_quotient(self):
        for abp in [(1, 2, 5), (1, 3, 8), (1, 4, 17), (2, 3, 11)]:
            spec = RQSpec(*abp)
            assert Q.product_over_X(spec, 40) == Q.rq_star_series(spec, 40)


unit_st = st.fractions(min_value=0, max_value=1, max_denominator=8).filter(
    lambda r: 0 < r < 1)
spec_st = st.one_of(
    st.integers(min_value=3, max_value=12).flatmap(
        lambda p: st.tuples(st.integers(1, p - 1), st.integers(1, p - 1),
                            st.just(p))),
    st.tuples(st.fractions(min_value=0, max_value=6,
                           max_denominator=3).filter(bool),
              unit_st, unit_st).map(lambda t: (t[0] * t[1], t[0] * t[2],
                                               t[0])),
).filter(lambda abp: abp[0] != abp[1]).map(lambda abp: RQSpec(*abp))
order_st = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=0, max_value=24, max_denominator=6))


@settings(max_examples=100, deadline=None)
@given(spec_st, order_st)
@example(RQSpec(2, 1, 4), Fraction(30))
@example(RQSpec(1, 3, 6), Fraction(5, 6))
@example(RQSpec(Fraction(1, 2), Fraction(1, 3), 1), Fraction(23, 2))
@example(RQSpec(Fraction(1, 3), Fraction(2, 3), Fraction(5, 3)),
         Fraction(10, 3))
def test_theta_quotient_matches_agile_quotient(spec, order):
    # the triple-product route against the product route: the quotient of
    # two one-list agiles by a dense reciprocal
    a, b, p = spec.a, spec.b, spec.p
    agiles = [Q.agile_series(x, p, order) for x in (a, b)]
    got = Q.rq_star_series(spec, order)
    assert got == (agiles[0] / agiles[1]).truncated(order)
    assert got.trunc == floor(order)
    assert all(type(c) is int for c in got.coeffs)


class TestLogDerivative:
    def test_m_series_coeffs_are_minus_tau(self):
        spec = RQSpec(1, 3, 7)
        table = TauTable(spec).fill(50)
        m = Q.m_series(spec, 50)
        assert m.coeff(0) == spec.Q
        for n in range(1, 51):
            assert m.coeff(n) == -table.values[n]

    def test_m_is_log_derivative_of_r(self):
        for abp in [(1, 2, 5), (2, 3, 11)]:
            spec = RQSpec(*abp)
            r = Q.rq_series(spec, 40)
            lhs = r.q_derivative()
            rhs = (Q.m_series(spec, 40) * r).truncated(lhs.trunc)
            assert agree_to(lhs, rhs, 39), abp

    def test_log_series_derivative(self):
        # the formal log of R is -sum tau(n) q^n / n; its q-derivative is M - Q
        spec = RQSpec(2, 3, 11)
        table = TauTable(spec).fill(40)
        log_r = S.make_series(
            [(n, Fraction(-table.values[n], n)) for n in range(1, 41)], 40)
        lhs = log_r.q_derivative()
        rhs = Q.m_series(spec, 40) - S.constant(spec.Q, 40)
        assert agree_to(lhs, rhs, 40)


class TestEtaBuilders:
    def test_f_minus_q_is_pochhammer(self):
        assert_plain(Q.eta_quotient_series(0, {1: 1}, 80),
                     plain_pochhammer(1, 1, 80))

    def test_quotient_builder(self):
        s = Q.eta_quotient_series(Fraction(1, 5), {1: 1, 5: -1}, 12)
        direct = (S.make_series([(Fraction(1, 5), 1)], 12)
                  * pochhammer(1, 1, 12)
                  * pochhammer(5, 5, 12).inverse()).truncated(12)
        assert s == direct

    def test_prefactor_beyond_order_raises(self):
        with pytest.raises(S.SeriesError):
            Q.eta_quotient_series(Fraction(1, 2), {1: 1, 2: -2, 5: -1, 10: 2},
                                  Fraction(1, 3))
        # the prefactor of [1,10;q] is q^(23/60)
        with pytest.raises(S.SeriesError):
            Q.normalized_agile_series(1, 10, Fraction(1, 3))

    def test_x_product(self):
        # X(-q) = prod (1 - q^(2n+1)) = f(-q)/f(-q^2)
        assert_plain(Q.eta_quotient_series(0, {1: 1, 2: -1}, 60),
                     plain_pochhammer(1, 2, 60))

    def test_rq_is_eta_quotient_of_divisor_decomposition(self):
        # chi = sum_d b_d [d | n] makes R = q^Q prod_d f(-q^d)^(b_d).  For
        # 2a = p chi counts a once but the agile has it squared, and for
        # a + b = p the residues of chi collide.
        checked = negative_q = 0
        for p in range(2, 25):
            for a in range(1, p):
                for b in range(a + 1, p):
                    if p in (2 * a, 2 * b, a + b):
                        continue
                    spec = RQSpec(a, b, p)
                    combo = decompose_character(spec, p)
                    if combo is None:
                        continue
                    eta = Q.eta_quotient_series(spec.Q, combo.eta_exponents(),
                                                60)
                    r = Q.rq_series(spec, 60)
                    known = min(eta.trunc, r.trunc)
                    assert eta.truncated(known) == r.truncated(known), spec
                    checked += 1
                    negative_q += spec.Q < 0
        assert (checked, negative_q) == (32, 16)


class TestSignFlip:
    def test_at_minus_q_integer_lattice(self):
        s = S.make_series([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        t = Q.at_minus_q(s)
        assert [t.coeff(n) for n in range(4)] == [1, -2, 3, -4]

    def test_at_minus_q_keeps_prefactor_magnitude(self):
        s = S.make_series([(Fraction(1, 5), 1), (Fraction(6, 5), 2)], 3)
        t = Q.at_minus_q(s)
        assert t.coeff(Fraction(1, 5)) == 1
        assert t.coeff(Fraction(6, 5)) == -2

    def test_at_minus_q_rejects_mixed_lattice(self):
        s = S.make_series([(0, 1), (Fraction(1, 2), 1)], 3)
        with pytest.raises(S.SeriesError):
            Q.at_minus_q(s)

    def test_abs_leading(self):
        s = S.make_series([(1, -2), (2, 5)], 4)
        t = Q.abs_leading(s)
        assert t.coeff(1) == 2 and t.coeff(2) == -5
        assert Q.abs_leading(t) == t


class TestRationalSpecs:
    def test_normalize_inverts(self):
        spec = RQSpec(1, Fraction(1, 2), 2)
        w, power, inverted = Q.normalize_rational_spec(spec)
        assert (w, power, inverted) == (RQSpec(1, 2, 4), Fraction(1, 2), True)

    def test_normalize_identity_on_integer(self):
        spec = RQSpec(1, 2, 5)
        w, power, inverted = Q.normalize_rational_spec(spec)
        assert (w, power, inverted) == (spec, 1, False)

    def test_rational_series_matches_substitution(self):
        spec = RQSpec(1, Fraction(1, 2), 2)
        w, power, inverted = Q.normalize_rational_spec(spec)
        direct = Q.rq_series(spec, 6)
        mapped = Q.rq_series(w, 12).substitute_power(power)
        if inverted:
            mapped = mapped.inverse()
        assert agree_to(direct, mapped, 5)

    def test_normalized_agile_quotient_is_rq(self):
        spec = RQSpec(1, 3, 10)
        num = Q.normalized_agile_series(1, 10, 12)
        den = Q.normalized_agile_series(3, 10, 12)
        assert agree_to((num / den).truncated(10), Q.rq_series(spec, 10), 10)


class TestRegistry:
    def test_registry_shape(self):
        registry = Q.identity_registry()
        assert len(registry) >= 25
        ids = [rec.id for rec in registry]
        assert len(ids) == len(set(ids))
        assert all(rec.status in ("proved", "conjectured") for rec in registry)
        # built once per process and shared, so it must not be mutable
        assert isinstance(registry, tuple)
        assert Q.identity_registry() is registry

    def test_short_verification_all_pass(self):
        for rec in Q.identity_registry():
            rep = rec.verify(steps=60)
            assert "first_failure_exponent" not in rep, rec.id
            assert rep["verified_steps"] >= 60, rec.id

    def test_sides_are_cut_at_the_checked_order(self):
        # both sides are known, and differ, one step past the order they
        # are built to; verify cuts them there, so the record holds
        def build(order):
            return (S.constant(1, order + 1),
                    S.make_series([(0, 1), (order + 1, 1)], order + 1))
        rep = Q.IdentityRecord("cut", "proved", 1, build).verify(steps=20)
        assert "first_failure_exponent" not in rep, rep
        assert rep["verified_steps"] >= 20

    def test_failure_is_reported_not_raised(self):
        bad = Q.IdentityRecord(
            id="deliberately-wrong", status="conjectured", lattice_denom=1,
            build=lambda order: (S.constant(1, order),
                                 S.make_series([(0, 1), (3, 1)], order)))
        rep = bad.verify(steps=20)
        assert rep["first_failure_exponent"] == "3"
