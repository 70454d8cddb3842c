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
from math import ceil, log
from typing import List, Optional

import mpmath

from . import quantities as Qm
from . import series as S
from .characters import RQSpec
from .modeq import n_series
from .series import FormalSeries, _frac


class NumericsError(ValueError):
    pass


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision plus guard digits and the mpmath context for them.

    Values are computed at digits + guard decimal places and reported at
    ``digits``; the guard absorbs cancellation so that reported values
    are trustworthy to about 10^-(digits-10).
    """

    digits: int = 50
    guard: int = 10

    @property
    def mp(self):
        return _mp_context(self.digits + self.guard)

    @property
    def tail_tolerance(self):
        return mpmath.mpf(10) ** (-(self.digits + self.guard))

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
    tol = root * mp.mpf(10) ** (-(ctx.digits + ctx.guard - 5))
    if not abs(mp.agm(1, kp) / mp.agm(1, k) - root) <= tol:
        raise NumericsError(
            f"singular modulus fails K(k')/K(k) = sqrt(r) for r={r}")
    return EllipticData(r=r, k=k, kp=kp, K=K, q=q)


def eval_agile(a_exp, p_exp, q, ctx: PrecisionContext):
    """The product (q^a; q^p)(q^(p-a); q^p) with a geometric tail cutoff.

    Works for complex q with |q| < 1; the tail is cut once both current
    factors are within tail_tolerance of 1, which bounds the dropped
    part by a geometric series at the same scale.
    """
    mp = ctx.mp
    a = _to_mpf(mp, a_exp)
    p = _to_mpf(mp, p_exp)
    if abs(q) >= 1:
        raise NumericsError("need |q| < 1")
    prod = mp.mpf(1) * (1 + 0 * q)  # promotes to mpc when q is complex
    tol = ctx.tail_tolerance
    n = 0
    while True:
        t1 = 1 - q ** (a + n * p)
        t2 = 1 - q ** (p - a + n * p)
        prod *= t1 * t2
        if abs(t1 - 1) < tol and abs(t2 - 1) < tol:
            return prod
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
    """Evaluate an exact truncated series at a numeric point."""
    mp = ctx.mp
    total = mp.mpf(0) * (1 + 0 * q)
    for e, c in series.terms():
        total += _to_mpf(mp, c) * q ** _to_mpf(mp, e)
    return total


def series_derivative(series: FormalSeries) -> FormalSeries:
    """Exact d/dq: the theta-operator series shifted down one power."""
    theta = series.q_derivative()
    terms = [(e - 1, c) for e, c in theta.terms()]
    return S.make_series(terms, theta.trunc - 1)


def series_order_for(q_mag, ctx: PrecisionContext) -> int:
    """Truncation order so the series tail is below working precision."""
    need = (ctx.digits + ctx.guard) * log(10) / (-log(q_mag))
    return int(ceil(need)) + 10


def eval_theta4(y, q, ctx: PrecisionContext, form: str = "series"):
    """theta_4 at the purely imaginary argument iy, nome q.

    ``series`` sums 1 + 2 sum (-1)^n q^(n^2) cosh(2ny); ``product`` uses
    the triple-product factorization.  The two agree to working
    precision and serve as cross-checks of each other.
    """
    mp = ctx.mp
    y = mp.mpf(y)
    q = mp.mpf(q)
    if not 0 <= q < 1:
        raise NumericsError("need 0 <= q < 1")
    tol = ctx.tail_tolerance
    if form == "series":
        total = mp.mpf(1)
        n = 1
        while True:
            term = 2 * (-1) ** n * q ** (n * n) * mp.cosh(2 * n * y)
            total += term
            if abs(term) < tol and q ** (n * n) < tol:
                return total
            n += 1
            if n > 10 ** 6:
                raise NumericsError("theta series outside convergence regime")
    if form == "product":
        prod = mp.mpf(1)
        n = 1
        ch = mp.cosh(2 * y)
        while True:
            t = (1 - q ** (2 * n)) * (1 - 2 * q ** (2 * n - 1) * ch
                                      + q ** (4 * n - 2))
            prod *= t
            if abs(t - 1) < tol:
                return prod
            n += 1
    raise NumericsError(f"unknown theta form {form!r}")


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


def _cf_backward(partials, depth):
    """Evaluate b0 + a1/(b1 + a2/(b2 + ...)) by backward recurrence.

    ``partials(n)`` returns (a_n, b_n) for n >= 1; b0 is supplied by the
    caller as partials(0)[1].
    """
    tail = 0
    for n in range(depth, 0, -1):
        a_n, b_n = partials(n)
        den = b_n + tail
        if den == 0:
            raise NumericsError(f"zero denominator at depth {n}")
        tail = a_n / den
    return partials(0)[1] + tail


def eval_cf(kind: str, params, q, ctx: PrecisionContext):
    """Continued-fraction evaluation with depth doubling.

    Kinds: ``rr`` (the classical fifth-power fraction), ``cubic``,
    ``rgg``, ``general_P`` (params = (a, b)), and ``theorem_quotient``
    (params = (A, B)), which is (1-q^(B-A)) P(q^A, q^B; q^(A+B)) and
    equals the (2A+3g, 2B+g, 4g) quantity without its q-prefactor,
    g = A+B.
    """
    mp = ctx.mp
    q = mp.mpf(q)
    if not 0 < q < 1:
        raise NumericsError("need 0 < q < 1")

    if kind == "rr":
        def partials(n):
            return (q ** n, mp.mpf(1))
        pre = q ** (mp.mpf(1) / 5)
    elif kind == "cubic":
        def partials(n):
            return (q ** n + q ** (2 * n), mp.mpf(1))
        pre = q ** (mp.mpf(1) / 3)
    elif kind == "rgg":
        def partials(n):
            if n == 0:
                return (None, 1 + q)
            return (q ** (2 * n), 1 + q ** (2 * n + 1))
        pre = q ** (mp.mpf(1) / 2)
    elif kind == "general_P":
        a, b = (mp.mpf(x) for x in params)
        return _eval_cf_P(a, b, q, ctx)
    elif kind == "theorem_quotient":
        A, B = params
        A = _to_mpf(mp, A)
        B = _to_mpf(mp, B)
        return (1 - q ** (B - A)) * _eval_cf_P(q ** A, q ** B, q ** (A + B), ctx)
    else:
        raise NumericsError(f"unknown continued fraction kind {kind!r}")

    if kind == "rgg":
        base = partials
    else:
        def base(n):
            if n == 0:
                return (None, mp.mpf(1))
            return partials(n)
    return pre / _converge_cf(base, ctx)


def _eval_cf_P(a, b, q, ctx: PrecisionContext):
    mp = ctx.mp

    def partials(n):
        if n == 0:
            return (None, 1 - a * b)
        w = q ** (2 * n - 1)
        return ((a - b * w) * (b - a * w), (1 - a * b) * (q ** (2 * n) + 1))

    return 1 / _converge_cf(partials, ctx)


def _converge_cf(partials, ctx: PrecisionContext):
    mp = ctx.mp
    tol = mp.mpf(10) ** (-(ctx.digits + ctx.guard - 2))
    depth = 16
    prev = _cf_backward(partials, depth)
    while depth < (1 << 22):
        depth *= 2
        cur = _cf_backward(partials, depth)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise NumericsError("continued fraction did not converge at depth cap")


# ---------------------------------------------------------------------------
# verification reports


def _report(check_id, ctx, lhs, rhs, extra=None, tol=None, **fields):
    mp = ctx.mp
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), mp.mpf(1))
    tol = tol if tol is not None else mp.mpf(10) ** (-(ctx.digits - 10))
    out = {
        "check_id": check_id,
        "digits": ctx.digits,
        "lhs": ctx.str_of(lhs),
        "rhs": ctx.str_of(rhs),
        "abs_err": ctx.str_of(abs_err),
        "verdict": "confirmed" if abs_err / scale < tol else "refuted",
    }
    out.update(fields)
    if extra:
        out.update(extra)
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
        rep["printed_verdict"] = "refuted"
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
    Qf = _to_mpf(mp, spec.Q)
    lhs = eval_rq(spec, q ** p, ctx)
    rhs = mp.mpc(1)
    for m in range(p):
        qc = q * mp.exp(2j * mp.pi * m / p)
        rhs *= q ** Qf * eval_agile(spec.a, spec.p, qc, ctx) \
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
    rep["printed_radical_verdict"] = (
        "confirmed" if abs(value - printed) < mp.mpf(10) ** (-(ctx.digits - 10))
        else "refuted")
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


def _poly_text(coeffs: List[int]) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mono = "x" if i == 1 else (f"x^{i}" if i else "")
        mag = abs(c)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def recognize_algebraic(x, max_degree: int, ctx: PrecisionContext
                        ) -> Optional[dict]:
    """Integer polynomial annihilating x, by lattice-based relation search.

    Tries degrees 1..max_degree on the power basis (1, x, ..., x^d);
    accepts the first primitive polynomial with residual below
    10^(-digits/2) whose coefficient height stays under 10^(digits/4)
    (taller vectors are lattice artifacts, not recognitions).  An x
    already below that residual bound is reported as the root of x.
    Returns None when nothing passes.
    """
    mp = ctx.mp
    x = mp.mpf(x)
    if mp.dps < 10 * max_degree:
        raise NumericsError(
            f"{ctx.digits} digits is too little for degree {max_degree}")
    height_bound = mp.mpf(10) ** (ctx.digits / 4)
    residual_bound = mp.mpf(10) ** (-(ctx.digits / 2))
    if abs(x) < residual_bound:
        # PSLQ rejects a zero entry, and the powers of so small an x are
        # zero at this precision; x itself already passes as its root
        return {"degree": 1, "coeffs": [0, 1], "polynomial": "x",
                "residual": ctx.str_of(abs(x))}
    for degree in range(1, max_degree + 1):
        powers = [x ** i for i in range(degree + 1)]
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
            "polynomial": _poly_text(coeffs),
            "residual": ctx.str_of(residual),
        }
    return None
