"""Unit tests for the high-precision evaluation and verification layer."""

from fractions import Fraction

import mpmath
import pytest

from rqwork import numerics, quantities
from rqwork.characters import RQSpec
from rqwork.modeq import n_series
from rqwork.numerics import NumericsError, context


@pytest.fixture(scope="module")
def ctx():
    return context(40)


def _assert_defining_ratio(d, digits):
    """K(k')/K(k) = sqrt(r) by mpmath.ellipk, to 10^-digits in the smaller k.

    K of the larger modulus comes from 1 - m, with m the square of the
    smaller one, in a context wide enough to hold 1 - m exactly: at
    r = 10^6 the larger modulus is 1 to any working precision.
    """
    small = min(d.k, d.kp)
    wide = mpmath.mp.clone()
    wide.dps = digits + 20 - 2 * int(mpmath.log10(small))
    m = wide.mpf(small) ** 2
    ratio = wide.ellipk(1 - m) / wide.ellipk(m)
    assert (d.k < d.kp) == (d.r > 1)
    # d ratio = -(2/pi) dk/k for the smaller modulus k, so this bounds
    # the relative error of the smaller modulus by about 10^-digits
    s = max(d.r, 1 / d.r)
    assert abs(ratio - wide.sqrt(wide.mpf(s.numerator) / s.denominator)) \
        < wide.mpf(10) ** -digits


class TestElliptic:
    def test_K_oracles(self, ctx):
        mp = ctx.mp
        assert abs(numerics.elliptic_K(0, ctx) - mp.pi / 2) < ctx.tail_tolerance
        # K(1/sqrt2) = Gamma(1/4)^2 / (4 sqrt(pi))
        lhs = numerics.elliptic_K(1 / mp.sqrt(2), ctx)
        rhs = mp.gamma(mp.mpf(1) / 4) ** 2 / (4 * mp.sqrt(mp.pi))
        assert abs(lhs - rhs) < mp.mpf(10) ** -38

    def test_K_matches_mpmath(self, ctx):
        mp = ctx.mp
        for k in ("0.1", "0.5", "0.93"):
            k = mp.mpf(k)
            assert abs(numerics.elliptic_K(k, ctx)
                       - mp.ellipk(k * k)) < mp.mpf(10) ** -38

    def test_singular_moduli(self, ctx):
        mp = ctx.mp
        d1 = numerics.singular_modulus(1, ctx)
        assert abs(d1.k - 1 / mp.sqrt(2)) < mp.mpf(10) ** -38
        d4 = numerics.singular_modulus(4, ctx)
        assert abs(d4.k - (3 - 2 * mp.sqrt(2))) < mp.mpf(10) ** -38

    @pytest.mark.parametrize("r,digits", [(58, 30), (64, 50), (100, 50)])
    def test_singular_modulus_small_k(self, r, digits):
        # k is below 1e-4 here, where rebuilding k from k' loses the
        # digits of k^2
        _assert_defining_ratio(numerics.singular_modulus(r, context(digits)),
                               digits)

    @pytest.mark.parametrize("digits", [30, 50, 200])
    @pytest.mark.parametrize("r", [Fraction(1, 10 ** 6), Fraction(1, 1000),
                                   Fraction(1000), Fraction(10 ** 6)])
    def test_singular_modulus_extreme_r(self, r, digits):
        c = context(digits)
        d = numerics.singular_modulus(r, c)
        inv = numerics.singular_modulus(1 / r, c)
        tol = c.mp.mpf(10) ** -digits
        assert abs(inv.k - d.kp) <= tol * d.kp
        assert abs(inv.kp - d.k) <= tol * d.k
        assert abs(d.k ** 2 + d.kp ** 2 - 1) <= tol
        _assert_defining_ratio(d, digits)

    @pytest.mark.parametrize("r", [Fraction(1, 1000), Fraction(1, 2), 2, 1000])
    def test_wrong_nome_refuted(self, ctx, monkeypatch, r):
        nome = numerics.nome
        monkeypatch.setattr(numerics, "nome", lambda r, c: nome(
            Fraction(r) + Fraction(1, 100), c))
        with pytest.raises(NumericsError):
            numerics.singular_modulus(r, ctx)

    def test_singular_defining_property(self, ctx):
        mp = ctx.mp
        for r in (2, 3, 5, 7):
            d = numerics.singular_modulus(r, ctx)
            ratio = numerics.elliptic_K(d.kp, ctx) / numerics.elliptic_K(d.k, ctx)
            assert abs(ratio - mp.sqrt(r)) < mp.mpf(10) ** -36, r
            assert abs(d.q - mp.exp(-mp.pi * mp.sqrt(r))) < mp.mpf(10) ** -36


class TestProductEvaluation:
    def test_agile_matches_series(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.15")
        order = numerics.series_order_for(0.15, ctx)
        s = quantities.agile_series(2, 7, order)
        direct = numerics.eval_agile(2, 7, q, ctx)
        via_series = numerics.eval_series(s, q, ctx)
        assert abs(direct - via_series) < mp.mpf(10) ** -38

    def test_f_is_euler_product(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.3")
        order = numerics.series_order_for(0.3, ctx)
        f = quantities.eta_quotient_series(0, {1: 1}, order)
        assert abs(numerics.eval_series(f, q, ctx)
                   - mp.qp(q)) < mp.mpf(10) ** -36

    def test_rq_is_prefactored_quotient(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.1")
        spec = RQSpec(1, 2, 5)
        direct = numerics.eval_rq(spec, q, ctx)
        quotient = q ** (mp.mpf(1) / 5) \
            * numerics.eval_agile(1, 5, q, ctx) \
            / numerics.eval_agile(2, 5, q, ctx)
        assert abs(direct - quotient) < mp.mpf(10) ** -38

    def test_series_derivative_matches_finite_difference(self, ctx):
        mp = ctx.mp
        spec = RQSpec(1, 3, 7)
        order = numerics.series_order_for(0.1, ctx)
        s = quantities.rq_series(spec, order)
        d = numerics.series_derivative(s)
        q = mp.mpf("0.1")
        h = mp.mpf(10) ** -12
        fd = (numerics.eval_series(s, q + h, ctx)
              - numerics.eval_series(s, q - h, ctx)) / (2 * h)
        assert abs(numerics.eval_series(d, q, ctx) - fd) < mp.mpf(10) ** -10


def _per_term(series, q, mp):
    """The series at q as a plain sum of c q^e, one power per term."""
    return mp.fsum(mp.mpf(c.numerator) / c.denominator
                   * q ** (mp.mpf(e.numerator) / e.denominator)
                   for e, c in ((e, Fraction(c)) for e, c in series.terms()))


def _qp_agile(a, p, q, mp):
    """(q^a; q^p)(q^(p-a); q^p) by mpmath.qp, for rational a and p."""
    a, p = Fraction(a), Fraction(p)

    def power(e):
        return q ** (mp.mpf(e.numerator) / e.denominator)

    return mp.qp(power(a), power(p)) * mp.qp(power(p - a), power(p))


class TestRunningPowers:
    """The running-product evaluators against one power per term."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda n: quantities.rq_series(RQSpec(1, 2, 5), n),
                     id="lattice-5"),
        pytest.param(lambda n: quantities.rq_series(RQSpec(1, 3, 8), n)
                     .shifted(Fraction(1, 7)), id="lattice-56"),
        pytest.param(lambda n: n_series(RQSpec(1, 2, 5), n),
                     id="negative-lead"),
        pytest.param(lambda n: numerics.series_derivative(
            quantities.rq_series(RQSpec(1, 3, 7), n)), id="fractions"),
    ])
    @pytest.mark.parametrize("q", ["0.05", "0.3", "0.7"])
    def test_series_horner_matches_per_term_sum(self, ctx, build, q):
        mp = ctx.mp
        q = mp.mpf(q)
        s = build(60)
        want = _per_term(s, q, mp)
        got = numerics.eval_series(s, q, ctx)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** -38

    def test_zero_series(self, ctx):
        mp = ctx.mp
        zero = quantities.rq_series(RQSpec(1, 2, 5), 10) \
            - quantities.rq_series(RQSpec(1, 2, 5), 10)
        assert zero.is_zero
        assert numerics.eval_series(zero, mp.mpf("0.3"), ctx) == 0

    def test_series_at_complex_point(self, ctx):
        mp = ctx.mp
        s = quantities.rq_series(RQSpec(1, 2, 5), 60)
        q = mp.mpf("0.3") * mp.exp(2j * mp.pi * 3 / 5)
        want = _per_term(s, q, mp)
        assert abs(numerics.eval_series(s, q, ctx) - want) \
            <= abs(want) * mp.mpf(10) ** -38

    @pytest.mark.parametrize("a,p", [(1, 5), (2, 7), (Fraction(1, 3), 2),
                                     (Fraction(3, 4), Fraction(5, 2))])
    @pytest.mark.parametrize("q", ["0.1", "0.6"])
    def test_agile_matches_qp(self, ctx, a, p, q):
        mp = ctx.mp
        q = mp.mpf(q)
        want = _qp_agile(a, p, q, mp)
        got = numerics.eval_agile(a, p, q, ctx)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** -38

    @pytest.mark.parametrize("a,p", [(1, 5), (Fraction(1, 3), 2)])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_agile_on_root_of_unity(self, ctx, a, p, m):
        # q^a, q^(p-a) and q^p on the principal branch, as mpmath takes them
        mp = ctx.mp
        q = mp.mpf("0.4") * mp.exp(2j * mp.pi * m / 5)
        want = _qp_agile(a, p, q, mp)
        got = numerics.eval_agile(a, p, q, ctx)
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** -38

    @pytest.mark.parametrize("q", ["0.05", "0.3", "0.6"])
    def test_every_cf_kind_against_eval_rq(self, ctx, q):
        mp = ctx.mp
        q = mp.mpf(q)

        def bare(abp):
            # R without its prefactor q^Q
            spec = RQSpec(*abp)
            return numerics.eval_rq(spec, q, ctx) \
                / q ** (mp.mpf(spec.Q.numerator) / spec.Q.denominator)

        A, B = 1, 2
        quotient = bare((2 * A + 3 * (A + B), 2 * B + (A + B), 4 * (A + B)))
        cases = [
            (numerics.eval_cf("rr", None, q, ctx),
             numerics.eval_rq(RQSpec(1, 2, 5), q, ctx)),
            (numerics.eval_cf("cubic", None, q, ctx),
             numerics.eval_rq(RQSpec(1, 3, 6), q, ctx)),
            (numerics.eval_cf("rgg", None, q, ctx),
             numerics.eval_rq(RQSpec(1, 3, 8), q, ctx)),
            (numerics.eval_cf("theorem_quotient", (A, B), q, ctx), quotient),
            ((1 - q ** (B - A)) * numerics.eval_cf(
                "general_P", (q ** A, q ** B), q ** (A + B), ctx), quotient),
        ]
        for got, want in cases:
            assert abs(got - want) <= abs(want) * mp.mpf(10) ** -36

    @pytest.mark.parametrize("r", [Fraction(1, 100), Fraction(1, 1000)])
    @pytest.mark.parametrize("abp", [(1, 2, 5), (1, 3, 8), (2, 5, 12)])
    def test_near_unit_nome_keeps_the_guard(self, r, abp):
        # thousands of running products near q = 1 must not eat into the
        # reported digits: relative error below 10^-digits against qp
        digits = 50
        c = context(digits)
        wide = mpmath.mp.clone()
        wide.dps = 160
        spec = RQSpec(*abp)
        got = numerics.eval_rq(spec, numerics.nome(r, c), c)
        q = wide.exp(-wide.pi * wide.sqrt(wide.mpf(r.numerator) / r.denominator))
        Q = spec.Q
        want = q ** (wide.mpf(Q.numerator) / Q.denominator) \
            * _qp_agile(spec.a, spec.p, q, wide) \
            / _qp_agile(spec.b, spec.p, q, wide)
        assert abs(wide.mpf(got) - want) < abs(want) * wide.mpf(10) ** -digits


class TestTheta:
    def test_series_matches_jtheta(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.2")
        for y in ("0.0", "0.3", "1.1"):
            y = mp.mpf(y)
            a = numerics.eval_theta4(y, q, ctx)
            b = mp.jtheta(4, mp.mpc(0, y), q)
            assert abs(a - b) < mp.mpf(10) ** -38

    def test_theta_form_matches_product_form(self, ctx):
        mp = ctx.mp
        x = mp.pi  # r = 1
        for abp in [(1, 2, 5), (1, 3, 8), (2, 3, 11)]:
            spec = RQSpec(*abp)
            theta = numerics.theta_form_rq(spec, x, ctx)
            product = numerics.eval_rq(spec, mp.exp(-x), ctx)
            assert abs(theta - product) < mp.mpf(10) ** -35, abp


class TestContinuedFractions:
    def test_fifth_power_fraction(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.2")
        cf = numerics.eval_cf("rr", None, q, ctx)
        assert abs(cf - numerics.eval_rq(RQSpec(1, 2, 5), q, ctx)) \
            < mp.mpf(10) ** -38

    def test_octic_fraction(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.25")
        cf = numerics.eval_cf("rgg", None, q, ctx)
        assert abs(cf - numerics.eval_rq(RQSpec(1, 3, 8), q, ctx)) \
            < mp.mpf(10) ** -38

    def test_cubic_fraction_product(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.2")
        cf = numerics.eval_cf("cubic", None, q, ctx)
        prod = q ** (mp.mpf(1) / 3) \
            * mp.sqrt(numerics.eval_agile(1, 2, q, ctx)) \
            / mp.sqrt(numerics.eval_agile(3, 6, q, ctx)) ** 3
        assert abs(cf - prod) < mp.mpf(10) ** -38

    def test_general_P_degenerate(self, ctx):
        assert numerics.eval_cf("general_P", (0, 0), ctx.mp.mpf("0.3"),
                                ctx) == 1

    def test_quotient_form(self, ctx):
        mp = ctx.mp
        q = mp.mpf("0.2")
        cf = numerics.eval_cf("theorem_quotient", (1, 2), q, ctx)
        quotient = numerics.eval_agile(11, 12, q, ctx) \
            / numerics.eval_agile(7, 12, q, ctx)
        assert abs(cf - quotient) < mp.mpf(10) ** -30

    def test_unknown_kind(self, ctx):
        with pytest.raises(NumericsError):
            numerics.eval_cf("nope", None, ctx.mp.mpf("0.1"), ctx)

    def test_point_outside_disk(self, ctx):
        with pytest.raises(NumericsError):
            numerics.eval_cf("rr", None, ctx.mp.mpf("1.5"), ctx)


class TestChecks:
    def test_derivative_reports_confirmed(self, ctx):
        for case in ("rgg", "cubic", "n-quantity"):
            rep = numerics.check_derivative_formulas(case, 1, ctx)
            assert rep["verdict"] == "confirmed", case

    def test_octic_example_adjudication(self, ctx):
        rep = numerics.check_derivative_formulas("example-octic", 1, ctx)
        assert rep["verdict"] == "confirmed"
        assert rep["printed_verdict"] == "refuted"

    def test_root_of_unity_product(self, ctx):
        rep = numerics.check_root_of_unity_product(
            RQSpec(1, 2, 5), "0.15", ctx)
        assert rep["verdict"] == "confirmed"

    def test_theta_coherence(self, ctx):
        rep = numerics.check_theta_coherence(RQSpec(1, 2, 5), 2, ctx)
        assert rep["verdict"] == "confirmed"

    def test_quartic_value(self, ctx):
        rep = numerics.check_quartic_value(1, ctx)
        assert rep["verdict"] == "confirmed"

    def test_report_error_is_relative(self, ctx):
        # 20 of 40 digits agree: an error scale floored at 1 confirms it
        lhs = ctx.mp.mpf("1.23456789012345678901e-30")
        rhs = ctx.mp.mpf("1.23456789012345678902e-30")
        zero = ctx.mp.mpf(0)
        assert numerics._report("c", ctx, lhs, rhs)["verdict"] == "refuted"
        assert numerics._report("c", ctx, lhs, lhs)["verdict"] == "confirmed"
        assert numerics._report("c", ctx, zero, zero)["verdict"] == "confirmed"

    def test_judge_equal_and_differing_pairs(self, ctx):
        x = ctx.mp.mpf("1.23456789012345678901e-30")
        y = x * (1 + ctx.mp.mpf(10) ** -20)
        assert numerics._judge(ctx, x, x) == "confirmed"
        assert numerics._judge(ctx, x, y) == "refuted"


class TestRecognition:
    def test_rational(self, ctx):
        found = numerics.recognize_algebraic(ctx.mp.mpf("0.5"), 4, ctx)
        assert found["degree"] == 1
        assert found["coeffs"] == [-1, 2]
        assert found["polynomial"] == "2*x - 1"

    def test_quadratic_surd(self, ctx):
        mp = ctx.mp
        found = numerics.recognize_algebraic(mp.sqrt(2) - 1, 4, ctx)
        assert found["coeffs"] == [-1, 2, 1]

    def test_cube_root_needs_degree_three(self, ctx):
        mp = ctx.mp
        x = mp.cbrt(2)
        assert numerics.recognize_algebraic(x, 2, ctx) is None
        found = numerics.recognize_algebraic(x, 3, ctx)
        assert found["coeffs"] == [-2, 0, 0, 1]

    def test_non_algebraic_rejected(self, ctx):
        assert numerics.recognize_algebraic(ctx.mp.pi, 3, ctx) is None

    def test_below_residual_bound_is_root_of_x(self, ctx):
        # PSLQ rejects a zero entry; such an x is the root of x itself
        for text in ("0", "-1e-30"):
            found = numerics.recognize_algebraic(ctx.mp.mpf(text), 4, ctx)
            assert found["coeffs"] == [0, 1]
            assert found["polynomial"] == "x"
            assert ctx.mp.mpf(found["residual"]) == abs(ctx.mp.mpf(text))

    def test_precision_guard(self):
        with pytest.raises(NumericsError):
            numerics.recognize_algebraic(0.5, 12, context(15))


class TestStability:
    def test_digit_doubling_agreement(self):
        # the same evaluation at two precisions must agree to the lower one
        lo, hi = context(30), context(60)
        q_lo = lo.mp.mpf("0.2")
        q_hi = hi.mp.mpf("0.2")
        a = numerics.eval_rq(RQSpec(1, 3, 8), q_lo, lo)
        b = numerics.eval_rq(RQSpec(1, 3, 8), q_hi, hi)
        assert abs(hi.mp.mpf(str(a)) - b) < hi.mp.mpf(10) ** -28

    def test_context_fields(self):
        c = context(25)
        assert c.digits == 25
        assert c.mp.dps >= 25
        assert 0 < c.tail_tolerance < 1e-25
