"""High-precision numeric verification of the quantities and their derivatives.

Everything here is floating-point cross-checking of the exact-series side
of the package: singular moduli from theta values at the nome
q = e^(-pi sqrt(r)), each checked by an AGM run; product / theta /
continued-fraction evaluation at that nome; the closed derivative
formulas; and integer-relation recognition of algebraic values.
Derivative checks differentiate the exact series and then evaluate; no
finite differences anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from math import ceil, log
from operator import mul
from typing import Optional

import mpmath

from . import quantities as Qm
from .characters import RQSpec
from .modeq import n_series
from .series import FormalSeries, _frac, _signed_sum


class NumericsError(ValueError):
    pass


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision plus guard digits and the mpmath context for them.

    Values are computed at digits + GUARD decimal places and reported at
    ``digits``; the guard absorbs cancellation so that reported values
    are trustworthy to about 10^-(digits-10).
    """

    digits: int = 50
    GUARD = 10  # a class constant, not a field

    @property
    def mp(self):
        return _mp_context(self.digits + self.GUARD)

    @property
    def tail_tolerance(self):
        return mpmath.mpf(10) ** (-(self.digits + self.GUARD))

    def str_of(self, x) -> str:
        return mpmath.nstr(x, self.digits)


@lru_cache(maxsize=None)
def _mp_context(dps: int):
    """The one mpmath context at ``dps`` digits; never set its precision."""
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


def context(digits: int = 50) -> PrecisionContext:
    return PrecisionContext(digits=digits)


@dataclass
class EllipticData:
    """Singular modulus k_r with its companion values."""

    r: Fraction
    k: object
    kp: object
    K: object
    q: object


def _to_mpf(mp, x):
    x = _frac(x)
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def nome(r, ctx: PrecisionContext):
    """The nome q = e^(-pi sqrt(r)) of the singular value r > 0."""
    mp = ctx.mp
    r = _frac(r)
    if r <= 0:
        raise NumericsError("r must be positive")
    return mp.exp(-mp.pi * mp.sqrt(_to_mpf(mp, r)))


def elliptic_K(k, ctx: PrecisionContext):
    """Complete elliptic integral of the first kind, pi / (2 AGM(1, k'))."""
    mp = ctx.mp
    k = mp.mpf(k)
    if not (0 <= k < 1):
        raise NumericsError(f"modulus must lie in [0,1), got {k}")
    return mp.pi / (2 * mp.agm(1, mp.sqrt(1 - k * k)))


def singular_modulus(r, ctx: PrecisionContext) -> EllipticData:
    """k_r, k'_r and K(k_r) in closed form, checked by K(k')/K(k) = sqrt(r).

    k = theta_2^2/theta_3^2, k' = theta_4^2/theta_3^2, K = (pi/2) theta_3^2
    at the nome of s = max(r, 1/r) (Borwein & Borwein, Pi and the AGM); for
    r < 1, k_(1/r) = k'_r swaps k and k' and K_r = sqrt(s) K_s, so theta_4
    never cancels near q = 1.  The check is AGM(1, k') / AGM(1, k).
    """
    mp = ctx.mp
    r = _frac(r)
    q = nome(r, ctx)
    s = max(r, 1 / r)
    q_s = nome(s, ctx)
    t = mp.jtheta(3, 0, q_s) ** 2
    k = mp.jtheta(2, 0, q_s) ** 2 / t
    kp = mp.jtheta(4, 0, q_s) ** 2 / t
    K = mp.pi * t / 2
    if r < 1:
        k, kp, K = kp, k, K * mp.sqrt(_to_mpf(mp, s))
    root = mp.sqrt(_to_mpf(mp, r))
    tol = root * mp.mpf(10) ** (-(ctx.digits + ctx.GUARD - 5))
    if not abs(mp.agm(1, kp) / mp.agm(1, k) - root) <= tol:
        raise NumericsError(
            f"singular modulus fails K(k')/K(k) = sqrt(r) for r={r}")
    return EllipticData(r=r, k=k, kp=kp, K=K, q=q)


def eval_agile(a_exp, p_exp, q, ctx: PrecisionContext):
    """The product (q^a; q^p)(q^(p-a); q^p) with a geometric tail cutoff.

    Works for complex q with |q| < 1.  q^a, q^(p-a) and q^p are the only
    fractional powers taken; each later factor's power is the previous
    one times q^p, which for complex q stays on the principal branch,
    since (q^p)^n = exp(n p log q).  The tail is cut once both current
    powers are below tail_tolerance, which bounds the dropped part by a
    geometric series at the same scale.
    """
    mp = ctx.mp
    if abs(q) >= 1:
        raise NumericsError("need |q| < 1")
    a, p = _frac(a_exp), _frac(p_exp)
    u, v, step = (q ** _to_mpf(mp, e) for e in (a, p - a, p))
    # both powers shrink by |q^p| per factor; the larger one decides the cut
    size, shrink = max(abs(u), abs(v)), abs(step)
    tol = ctx.tail_tolerance
    prod = mp.one
    n = 0
    while True:
        prod *= (1 - u) * (1 - v)
        if size < tol:
            return prod
        u *= step
        v *= step
        size *= shrink
        n += 1
        if n > 10 ** 7:
            raise NumericsError("agile product failed to converge")


def eval_rq(spec: RQSpec, q, ctx: PrecisionContext):
    """R(a,b,p;q) for real q in (0,1), via the agile products."""
    mp = ctx.mp
    pre = q ** _to_mpf(mp, spec.Q)
    return pre * eval_agile(spec.a, spec.p, q, ctx) \
        / eval_agile(spec.b, spec.p, q, ctx)


def eval_series(series: FormalSeries, q, ctx: PrecisionContext):
    """Evaluate an exact truncated series at a numeric point.

    Horner's rule in x = q^(1/denom) from the top coefficient down, over
    the nonzero coefficients only: x^g is taken once for each gap g
    between neighbours, then the sum is scaled by q^(lead/denom).
    """
    mp = ctx.mp
    if series.is_zero:
        return 0 * q
    x = q ** _to_mpf(mp, Fraction(1, series.denom))
    gap_powers = {}
    acc = mp.zero
    gap = 0
    for c in reversed(series.coeffs):
        if c:
            if gap:
                xg = gap_powers.get(gap)
                if xg is None:
                    xg = gap_powers[gap] = x ** gap
                acc *= xg
            acc += c if type(c) is int else _to_mpf(mp, c)
            gap = 0
        gap += 1
    # coeffs[0] is nonzero, so the last gap closed at the lead
    return acc * q ** _to_mpf(mp, series.lead_exponent)


def series_derivative(series: FormalSeries) -> FormalSeries:
    """Exact d/dq: the theta-operator series shifted down one power."""
    return series.q_derivative().shifted(-1)


def series_order_for(q_mag, ctx: PrecisionContext) -> int:
    """Truncation order so the series tail is below working precision."""
    need = (ctx.digits + ctx.GUARD) * log(10) / (-log(q_mag))
    return int(ceil(need)) + 10


def eval_theta4(y, q, ctx: PrecisionContext):
    """theta_4 at the purely imaginary argument iy, nome q.

    Sums 1 + 2 sum (-1)^n q^(n^2) cosh(2ny) with every factor by
    recurrence: q^((n+1)^2) = q^(n^2) q^(2n+1), and
    cosh(2(n+1)y) = 2 cosh(2y) cosh(2ny) - cosh(2(n-1)y).
    """
    mp = ctx.mp
    y = mp.mpf(y)
    q = mp.mpf(q)
    if not 0 <= q < 1:
        raise NumericsError("need 0 <= q < 1")
    tol = ctx.tail_tolerance
    q2 = q * q
    odd = square = q  # q^(2n-1) and q^(n^2) at n = 1
    ch_prev, ch = mp.one, mp.cosh(2 * y)  # cosh(2(n-1)y) and cosh(2ny)
    twice_ch1 = 2 * ch
    sign = -2  # 2 (-1)^n
    total = mp.one
    n = 1
    while True:
        term = sign * square * ch
        total += term
        if abs(term) < tol and square < tol:
            return total
        n += 1
        if n > 10 ** 6:
            raise NumericsError("theta series outside convergence regime")
        odd *= q2
        square *= odd
        ch_prev, ch = ch, twice_ch1 * ch - ch_prev
        sign = -sign


def theta_form_rq(spec: RQSpec, x, ctx: PrecisionContext):
    """R(a,b,p;e^(-x)) as an exponential prefactor times a theta quotient."""
    mp = ctx.mp
    x = mp.mpf(x)
    a = _to_mpf(mp, spec.a)
    b = _to_mpf(mp, spec.b)
    p = _to_mpf(mp, spec.p)
    pre = mp.exp(-x * (a * a - b * b) / (2 * p) + x * (a - b) / 2)
    q = mp.exp(-p * x / 2)
    top = eval_theta4((p - 2 * a) * x / 4, q, ctx)
    bot = eval_theta4((p - 2 * b) * x / 4, q, ctx)
    return pre * top / bot


# ---------------------------------------------------------------------------
# continued fractions


def _running(first, ratio):
    """first, first*ratio, first*ratio^2, ...: one multiplication each."""
    return accumulate(repeat(ratio), mul, initial=first)


def _cf_backward(terms, depth):
    """Evaluate b0 + a1/(b1 + a2/(b2 + ...)) to ``depth`` by backward recurrence.

    ``terms[n]`` is (a_n, b_n); a_0 is unused.
    """
    tail = 0
    for n in range(depth, 0, -1):
        a_n, b_n = terms[n]
        den = b_n + tail
        if den == 0:
            raise NumericsError(f"zero denominator at depth {n}")
        tail = a_n / den
    return terms[0][1] + tail


def eval_cf(kind: str, params, q, ctx: PrecisionContext):
    """Continued-fraction evaluation with depth doubling.

    Kinds: ``rr`` (the classical fifth-power fraction), ``cubic``,
    ``rgg``, ``general_P`` (params = (a, b)), and ``theorem_quotient``
    (params = (A, B)), which is (1-q^(B-A)) P(q^A, q^B; q^(A+B)) and
    equals the (2A+3g, 2B+g, 4g) quantity without its q-prefactor,
    g = A+B.  The powers of q in the partial quotients are running
    products.
    """
    mp = ctx.mp
    q = mp.mpf(q)
    if not 0 < q < 1:
        raise NumericsError("need 0 < q < 1")
    one = mp.one

    if kind == "rr":
        pre = q ** (one / 5)
        partials = ((u, one) for u in _running(q, q))
        b0 = one
    elif kind == "cubic":
        pre = q ** (one / 3)
        partials = ((u + u * u, one) for u in _running(q, q))
        b0 = one
    elif kind == "rgg":
        pre = mp.sqrt(q)
        q2 = q * q
        partials = ((s, 1 + s * q) for s in _running(q2, q2))
        b0 = 1 + q
    elif kind == "general_P":
        a, b = (mp.mpf(x) for x in params)
        return _eval_cf_P(a, b, q, ctx)
    elif kind == "theorem_quotient":
        qa, qb = (q ** _to_mpf(mp, e) for e in params)
        return (1 - qb / qa) * _eval_cf_P(qa, qb, qa * qb, ctx)
    else:
        raise NumericsError(f"unknown continued fraction kind {kind!r}")
    return pre / _converge_cf(chain([(None, b0)], partials), ctx)


def _eval_cf_P(a, b, q, ctx: PrecisionContext):
    c = 1 - a * b
    # w = q^(2n-1) at depth n
    partials = (((a - b * w) * (b - a * w), c * (w * q + 1))
                for w in _running(q, q * q))
    return 1 / _converge_cf(chain([(None, c)], partials), ctx)


def _converge_cf(partials, ctx: PrecisionContext):
    """The continued fraction of ``partials`` at doubling depths from 16.

    ``partials`` yields (a_n, b_n) for n = 0, 1, 2, ...; the terms are
    kept, so each is computed once however often the depth doubles.
    """
    mp = ctx.mp
    tol = mp.mpf(10) ** (-(ctx.digits + ctx.GUARD - 2))
    depth = 16
    terms = list(islice(partials, depth + 1))
    prev = _cf_backward(terms, depth)
    while depth < (1 << 22):
        depth *= 2
        terms += islice(partials, depth + 1 - len(terms))
        cur = _cf_backward(terms, depth)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise NumericsError("continued fraction did not converge at depth cap")


# ---------------------------------------------------------------------------
# verification reports


def _judge(ctx, lhs, rhs) -> str:
    """The verdict on lhs = rhs: do they agree to all but ten digits?"""
    tol = ctx.mp.mpf(10) ** (-(ctx.digits - 10))
    # relative to the values' own size; a product, so 0 = 0 is confirmed
    confirmed = abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs))
    return "confirmed" if confirmed else "refuted"


def _report(check_id, ctx, lhs, rhs, **fields):
    out = {
        "check_id": check_id,
        "digits": ctx.digits,
        "lhs": ctx.str_of(lhs),
        "rhs": ctx.str_of(rhs),
        "abs_err": ctx.str_of(abs(lhs - rhs)),
        "verdict": _judge(ctx, lhs, rhs),
    }
    out.update(fields)
    return out


def check_derivative_formulas(case: str, r, ctx: PrecisionContext) -> dict:
    """Compare a closed derivative formula against the exact series.

    The left side is always the termwise derivative of the exact series
    evaluated at q = e^(-pi sqrt(r)); the right side is the elliptic
    closed form.  Two printed forms needed corrections, recorded in the
    report notes: the nome-modulus chain rule takes a plus sign
    (dq/dk = q pi^2 / (2 k k'^2 K^2)), and the cubic formula carries no
    sqrt(r) factor.
    """
    mp = ctx.mp
    data = singular_modulus(r, ctx)
    k, kp, K, q = data.k, data.kp, data.K, data.q
    order = series_order_for(float(q), ctx)

    if case == "rgg":
        spec = RQSpec(1, 3, 8)
        lhs = eval_series(series_derivative(Qm.rq_series(spec, order)), q, ctx)
        dHdk = mp.sqrt(1 - kp) / (kp * (k * mp.sqrt(2) + 2 * mp.sqrt(1 - kp)))
        dqdk = q * mp.pi ** 2 / (2 * k * kp ** 2 * K ** 2)  # sign corrected
        return _report("derivative-rgg", ctx, lhs, dHdk / dqdk, r=str(_frac(r)),
                       note="chain-rule sign corrected to dq/dk > 0")
    if case == "cubic":
        spec = RQSpec(1, 3, 6)
        lhs = eval_series(series_derivative(Qm.rq_series(spec, order)), q, ctx)
        V = eval_rq(spec, q, ctx)
        rhs = 4 * K ** 2 * kp ** 2 * (V + V ** 4) \
            / (3 * q * mp.pi ** 2 * mp.sqrt(1 - 8 * V ** 3))
        return _report("derivative-cubic", ctx, lhs, rhs, r=str(_frac(r)),
                       note="spurious sqrt(r) factor dropped")
    if case == "n-quantity":
        spec = RQSpec(1, 2, 5)
        lhs = eval_series(n_series(spec, order), q, ctx)
        f4 = 2 ** (mp.mpf(4) / 3) * mp.pi ** -2 * q ** (-mp.mpf(1) / 6) \
            * k ** (mp.mpf(1) / 3) * kp ** (mp.mpf(4) / 3) * K ** 2
        m_val = eval_series(Qm.m_series(spec, order), q, ctx)
        rhs = q ** (-mp.mpf(1) / 6) * m_val / f4
        return _report("derivative-n-quantity", ctx, lhs, rhs, r=str(_frac(r)),
                       note="eta fourth power from its elliptic closed form")
    if case == "example-quartic":
        # dR(1,2,4)/dq at e^-pi against its conjectured closed value
        if _frac(r) != 1:
            raise NumericsError("quartic example is stated at r = 1")
        lhs = eval_series(
            series_derivative(Qm.rq_series(RQSpec(1, 2, 4), order)), q, ctx)
        K2 = elliptic_K(1 / mp.sqrt(2), ctx)
        gamma_quarter_4 = 16 * mp.pi * K2 ** 2
        rhs = mp.exp(mp.pi) * gamma_quarter_4 \
            / (64 * 2 ** (mp.mpf(5) / 8) * mp.pi ** 3)
        return _report("derivative-example-quartic", ctx, lhs, rhs, r="1")
    if case == "example-octic":
        # dR(1,3,8)/dq at e^-pi; the printed radical has the wrong inner sign
        if _frac(r) != 1:
            raise NumericsError("octic example is stated at r = 1")
        lhs = eval_series(
            series_derivative(Qm.rq_series(RQSpec(1, 3, 8), order)), q, ctx)
        K2 = elliptic_K(1 / mp.sqrt(2), ctx)
        gamma_neg_quarter_4 = 64 * mp.pi ** 3 / K2 ** 2
        scale = 64 * mp.exp(mp.pi) * mp.pi / gamma_neg_quarter_4
        printed = (2 + mp.sqrt(2) - mp.sqrt(5 - mp.mpf(7) / 2 * mp.sqrt(2)))
        corrected = (2 + mp.sqrt(2) - mp.sqrt(5 + mp.mpf(7) / 2 * mp.sqrt(2)))
        rep = _report("derivative-example-octic", ctx, lhs, corrected * scale,
                      r="1", note="inner radical sign corrected to 5 + (7/2)sqrt(2)")
        rep["printed_rhs"] = ctx.str_of(printed * scale)
        rep["printed_abs_err"] = ctx.str_of(abs(lhs - printed * scale))
        rep["printed_verdict"] = _judge(ctx, lhs, printed * scale)
        return rep
    raise NumericsError(f"unknown derivative case {case!r}")


def check_root_of_unity_product(spec: RQSpec, q, ctx: PrecisionContext) -> dict:
    """R at q^p against the product of R over the p-th roots of unity.

    Each factor keeps the real prefactor q^Q; the root of unity enters
    only through the agile products, which is the branch on which the
    underlying coefficient identity lives.
    """
    mp = ctx.mp
    a, b, p = spec.as_ints()
    q = mp.mpf(q)
    pre = q ** _to_mpf(mp, spec.Q)
    lhs = eval_rq(spec, q ** p, ctx)
    rhs = mp.mpc(1)
    for m in range(p):
        qc = q * mp.exp(2j * mp.pi * m / p)
        rhs *= pre * eval_agile(spec.a, spec.p, qc, ctx) \
            / eval_agile(spec.b, spec.p, qc, ctx)
    return _report("root-of-unity-product", ctx, lhs, rhs,
                   spec=str(spec), q=ctx.str_of(q))


def check_singular_relations(r, ctx: PrecisionContext) -> dict:
    """The two closed forms of k_r^2 through the octic and cubic quantities.

    The octic form as printed fails; it closes as
    k^2 = 16 H^2 (1-H^2)^2 / (1+H^2)^4, i.e. with the full square of
    (1+H^2)^2 downstairs.  Both residuals are reported.
    """
    mp = ctx.mp
    data = singular_modulus(r, ctx)
    q = data.q
    H = eval_rq(RQSpec(1, 3, 8), q, ctx)
    V = eval_rq(RQSpec(1, 3, 6), q, ctx)
    T = mp.sqrt(1 - 8 * V ** 3)
    k_sq = data.k ** 2
    octic = 16 * H ** 2 * (1 - H ** 2) ** 2 / (1 + H ** 2) ** 4
    octic_printed = 16 * H ** 2 * ((1 - H ** 2) / (1 + H ** 2)) ** 2
    cubic = (1 - T) * (3 + T) ** 3 / ((1 + T) * (3 - T) ** 3)
    rep = _report("singular-relations", ctx, octic, cubic, r=str(_frac(r)),
                  note="octic denominator corrected to (1+H^2)^4")
    rep["k_sq"] = ctx.str_of(k_sq)
    rep["octic_abs_err"] = ctx.str_of(abs(k_sq - octic))
    rep["cubic_abs_err"] = ctx.str_of(abs(k_sq - cubic))
    rep["printed_octic_abs_err"] = ctx.str_of(abs(k_sq - octic_printed))
    return rep


def check_quartic_value(r, ctx: PrecisionContext) -> dict:
    """Y(q^4) for Y = R(1,2,4) against its radical in the complementary modulus."""
    mp = ctx.mp
    data = singular_modulus(r, ctx)
    kp, q = data.kp, data.q
    lhs = eval_rq(RQSpec(1, 2, 4), q ** 4, ctx)
    t1 = mp.sqrt(3 * kp + kp ** 2 + 2 * mp.sqrt(2) * kp * mp.sqrt(1 + kp))
    rhs = mp.sqrt((1 - kp ** 2 + 2 * (mp.sqrt(1 + kp) - mp.sqrt(2)) * t1)
                  / (2 * (1 - kp) ** 2))
    return _report("quartic-value", ctx, lhs, rhs, r=str(_frac(r)))


def check_gg_value(ctx: PrecisionContext) -> dict:
    """The octic quantity at e^-pi: product, closed form, and both radicals.

    The circulated radical sqrt(4-2 sqrt(2)) - 1 - sqrt(2) is negative
    and cannot equal the (positive) product; the sign-corrected
    sqrt(4+2 sqrt(2)) - 1 - sqrt(2) matches.
    """
    mp = ctx.mp
    data = singular_modulus(1, ctx)
    value = eval_rq(RQSpec(1, 3, 8), data.q, ctx)
    t = data.k / (1 - data.kp)
    closed = -t + mp.sqrt(t * t + 1)
    rep = _report("gg-value", ctx, value, closed, r="1",
                  note="closed form -t + sqrt(t^2+1), t = k/(1-k')")
    printed = mp.sqrt(4 - 2 * mp.sqrt(2)) - 1 - mp.sqrt(2)
    corrected = mp.sqrt(4 + 2 * mp.sqrt(2)) - 1 - mp.sqrt(2)
    rep["printed_radical"] = ctx.str_of(printed)
    rep["printed_radical_verdict"] = _judge(ctx, value, printed)
    rep["corrected_radical"] = ctx.str_of(corrected)
    rep["corrected_radical_abs_err"] = ctx.str_of(abs(value - corrected))
    return rep


def check_theta_coherence(spec: RQSpec, r, ctx: PrecisionContext) -> dict:
    """Theta-quotient form of R against the agile product form."""
    mp = ctx.mp
    q = nome(r, ctx)  # rejects r <= 0
    x = mp.pi * mp.sqrt(_to_mpf(mp, r))
    lhs = theta_form_rq(spec, x, ctx)
    rhs = eval_rq(spec, q, ctx)
    return _report("theta-coherence", ctx, lhs, rhs,
                   spec=str(spec), r=str(_frac(r)))


# ---------------------------------------------------------------------------
# recognition


def recognize_algebraic(x, max_degree: int, ctx: PrecisionContext
                        ) -> Optional[dict]:
    """Integer polynomial annihilating x, by lattice-based relation search.

    Tries degrees 1..max_degree on the power basis (1, x, ..., x^d);
    accepts the first primitive polynomial with residual below
    10^(-digits/2) whose coefficient height H stays under
    10^(digits/(4 degree)).  Any degree + 1 integers of height H nearly
    annihilate x, to about H^-degree, so a taller bound would let such
    lattice artifacts pass as recognitions; under this one an artifact's
    residual is near 10^(-digits/4).  An x already below the residual
    bound is reported as the root of x.
    Returns None when nothing passes.
    """
    mp = ctx.mp
    x = mp.mpf(x)
    if mp.dps < 10 * max_degree:
        raise NumericsError(
            f"{ctx.digits} digits is too little for degree {max_degree}")
    residual_bound = mp.mpf(10) ** (-(ctx.digits / 2))
    if abs(x) < residual_bound:
        # PSLQ rejects a zero entry, and the powers of so small an x are
        # zero at this precision; x itself already passes as its root
        return {"degree": 1, "coeffs": [0, 1], "polynomial": "x",
                "residual": ctx.str_of(abs(x))}
    for degree in range(1, max_degree + 1):
        powers = [x ** i for i in range(degree + 1)]
        height_bound = mp.mpf(10) ** (ctx.digits / (4 * degree))
        if abs(powers[-1]) < mp.mpf(2) ** -mp.prec:
            break  # zero at this precision, so PSLQ cannot use it
        rel = mp.pslq(powers, maxcoeff=int(height_bound), maxsteps=20000)
        if rel is None:
            continue
        if rel[degree] == 0:
            continue  # relation among lower powers; smaller degree handles it
        if max(abs(c) for c in rel) > height_bound:
            continue
        residual = abs(sum(c * p for c, p in zip(rel, powers)))
        if residual > residual_bound:
            continue
        coeffs = list(rel)
        lead = next(c for c in reversed(coeffs) if c)
        if lead < 0:
            coeffs = [-c for c in coeffs]
        return {
            "degree": degree,
            "coeffs": coeffs,
            "polynomial": _signed_sum(
                (coeffs[i], f"x^{i}" if i > 1 else "x" if i else "")
                for i in reversed(range(degree + 1))),
            "residual": ctx.str_of(residual),
        }
    return None
