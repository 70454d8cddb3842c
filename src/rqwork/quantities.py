"""Builders for agiles, Ramanujan quantities, eta-type series and M(q).

Everything here returns a :class:`FormalSeries` with exact rational
coefficients.  The bottom half of the module is a read-only catalog of
known identities between these objects, each stored as a builder that
produces both sides to a requested order so the equality can be checked
exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, gcd, lcm
from typing import Dict

from . import series as S
from .characters import RQSpec, SpecError, TauTable
from .series import FormalSeries, _frac


def agile_series(a_exp, p_exp, order) -> FormalSeries:
    """The product (q^(p-a); q^p)_inf (q^a; q^p)_inf, exact to floor(order).

    Both residue progressions multiply one coefficient list in place, one
    factor (1 - q^e) at a time, with no convolution.
    """
    a = _frac(a_exp)
    p = _frac(p_exp)
    if not 0 < a < p:
        raise SpecError("agile requires 0 < a < p")
    return S._pochhammer_product((p - a, a), p, order)


def rq_series(spec: RQSpec, order) -> FormalSeries:
    """q^Q times the agile quotient [a,p;q]/[b,p;q]."""
    order = _frac(order)
    if order <= spec.Q:
        raise SpecError(f"order {order} must exceed the prefactor {spec.Q}")
    return rq_star_series(spec, order).shifted(spec.Q).truncated(order)


def rq_star_series(spec: RQSpec, order) -> FormalSeries:
    """The agile quotient [a,p;q]/[b,p;q] without the q^Q prefactor.

    By the Jacobi triple product [x,p;q] (q^p;q^p)_inf equals the theta
    sum of :func:`_theta_terms`, so the quotient is a quotient of two
    sums with O(sqrt N) terms each.  Both have constant term 1, and one
    sparse recurrence y_k = a_k - sum_(e>=1) b_e y_(k-e) divides them
    exactly, to floor(order) like :func:`agile_series`.
    """
    d = lcm(spec.a.denominator, spec.b.denominator, spec.p.denominator)
    n = S._whole_steps(order, d)
    out = [0] * (n + 1)
    for e, c in _theta_terms(spec.a, spec.p, d, n).items():
        out[e] = c
    den = sorted((e, c) for e, c in _theta_terms(spec.b, spec.p, d, n).items()
                 if e)
    for k in range(n + 1):
        y = out[k]
        for e, c in den:
            if e > k:
                break
            y -= c * out[k - e]
        out[k] = y
    return FormalSeries(d, 0, out)


def _theta_terms(x, p, d, n) -> Dict[int, int]:
    """sum_m (-1)^m q^(p m(m-1)/2 + x m) to q^(n/d), keyed by steps of 1/d.

    For 0 < x < p the exponents grow with |m| in both directions and only
    m = 0 sits at 0.  Coinciding exponents are summed: for 2x = p, m and
    -m meet at p m^2/2.
    """
    P, X = int(p * d), int(x * d)
    terms = {}
    for m, step in ((0, 1), (-1, -1)):
        while (e := P * m * (m - 1) // 2 + X * m) <= n:
            terms[e] = terms.get(e, 0) + (-1 if m % 2 else 1)
            m += step
    return terms


def product_over_X(spec: RQSpec, order: int) -> FormalSeries:
    """prod (1-q^n)^X(n), factor by factor with exact arithmetic.

    Each factor is the ``int`` list of 1 - q^n known to ``order``; it is
    multiplied or divided through :class:`FormalSeries`.
    """
    table = TauTable(spec)
    top = S._whole_steps(order, 1)
    one = [1] + [0] * top
    result = FormalSeries(1, 0, one)
    for n in range(1, top + 1):
        x = table.chi(n)
        if x:
            cs = one.copy()
            cs[n] = -1
            factor = FormalSeries(1, 0, cs)
            result = result * factor if x > 0 else result / factor
    return result.truncated(order)


def m_series(spec: RQSpec, order: int) -> FormalSeries:
    """M(q) = Q - sum tau(n) q^n, the logarithmic q-derivative of R."""
    tau = TauTable(spec).fill(int(order)).values
    return FormalSeries(1, 0, [spec.Q] + [-t for t in tau[1:]])


def eta_quotient_series(prefactor_exp, factors: Dict, order) -> FormalSeries:
    """q^prefactor_exp * prod_m f(-q^m)^e_m for ``factors`` = {m: e_m}.

    f(-q^m)^e multiplies every factor (1 - q^(m k)) by e, so the whole
    quotient is one Euler product of summed multiplicities.  When every
    e_m shares a factor g > 1, the g-th root is built and raised to g:
    a few squarings cost less than g passes per factor.
    """
    pre, order = _frac(prefactor_exp), _frac(order)
    factors = {_frac(m): int(e) for m, e in factors.items() if e}
    if any(m <= 0 for m in factors):
        raise S.SeriesError("eta quotient arguments must be positive")
    if pre > order:
        raise S.SeriesError("exponent beyond requested order")
    d = lcm(*(m.denominator for m in factors))
    n = ceil((order - pre) * d)
    g = gcd(*factors.values()) or 1
    mult = Counter()
    for m, e in factors.items():
        for k in range(int(m * d), n + 1, int(m * d)):
            mult[k] += e // g
    root = FormalSeries(d, 0, S._euler_product(mult, n))
    return (root ** g).shifted(pre).truncated(order)


def normalize_rational_spec(spec: RQSpec):
    """Integer w-spec, substitution exponent and inversion flag.

    Returns (w_spec, s, inverted) with
    ``rq_series(spec)(q) == rq_series(w_spec)(q^(1/s))^(+-1)`` where
    s = a2*b2*p2 (the denominators) and the inversion enforces
    first entry < second entry via the reciprocal law.
    """
    a, b, p = spec.a, spec.b, spec.p
    s = a.denominator * b.denominator * p.denominator
    wa = a.numerator * (s // a.denominator)
    wb = b.numerator * (s // b.denominator)
    wp = p.numerator * (s // p.denominator)
    inverted = wa > wb
    if inverted:
        wa, wb = wb, wa
    return RQSpec(wa, wb, wp), Fraction(1, s), inverted


def normalized_agile_series(a_exp, p_exp, order, power=1) -> FormalSeries:
    """q^(p/12 - a/2 + a^2/(2p)) [a,p;q], optionally at q^power.

    This prefactor makes the agile transform like an eta quotient; the
    quotient of two normalized agiles with the same p is exactly the
    Ramanujan quantity R(a,b,p;q), prefactor included.  Polynomial
    relations between agiles are homogeneous only in this normalization.
    """
    a, p, power = _frac(a_exp), _frac(p_exp), _frac(power)
    order = _frac(order)
    e = power * (p / 12 - a / 2 + a * a / (2 * p))
    rel = order - e
    # rel = 0 needs one lattice period; rel < 0 puts the prefactor beyond
    # the order, which agile_series refuses as an exponent beyond it
    base = agile_series(a, p, (rel or power) / power).substitute_power(power)
    return base.shifted(e).truncated(order)


def at_minus_q(s: FormalSeries) -> FormalSeries:
    """The series at -q, signs taken relative to the leading exponent.

    Coefficients at odd integer offsets from the lead flip sign; the
    fractional prefactor q^Q keeps its magnitude, which is the real-branch
    reading of (-q)^Q and the one under which the even-doubling relations
    close.  Requires every exponent to sit an integer above the lead.
    """
    if s.is_zero:
        return s
    d = s.denom
    for i, c in enumerate(s.coeffs):
        if c and i % d:
            raise S.SeriesError(
                f"exponent {Fraction(s.lead + i, d)} is not an integer "
                f"offset from lead {s.lead_exponent}")
    out = list(s.coeffs)
    out[d::2 * d] = [-c for c in out[d::2 * d]]
    return FormalSeries(d, s.lead, out)


def abs_leading(s: FormalSeries) -> FormalSeries:
    """Negate the whole series if its leading coefficient is negative."""
    return -s if not s.is_zero and s.coeffs[0] < 0 else s


# --------------------------------------------------------------------------
# identity catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityRecord:
    """One machine-checkable identity: builders for both sides.

    ``status`` is "proved" for identities with a known derivation and
    "conjectured" for empirical ones; ``lattice_denom`` is the natural
    denominator of the q-lattice the identity lives on, so a request for
    N lattice steps is checked at least to exponent N/lattice_denom.
    """

    id: str
    status: str
    lattice_denom: int
    build: object  # callable order -> (lhs, rhs), uncut FormalSeries
    note: str = ""

    def verify(self, steps: int = 200) -> dict:
        # padding absorbs truncation erosion from high powers and shifts,
        # so the full requested range really gets checked; both sides are
        # cut here, at the order they were built to, and in no builder
        order = Fraction(steps, self.lattice_denom) + 4
        lhs, rhs = (side.truncated(order) for side in self.build(order))
        diff = lhs - rhs
        report = {"id": self.id, "status": self.status,
                  "requested_steps": steps}
        if not diff.is_zero:
            report["first_failure_exponent"] = str(diff.lead_exponent)
            return report
        report["verified_order"] = str(diff.trunc)
        report["verified_steps"] = int(diff.trunc * self.lattice_denom)
        return report


def _cf_product_builder(A: int, B: int):
    """Both sides of the continued-fraction product expansion.

    For a = 2A + 3p/4, b = 2B + p/4, p = 4(A+B) the agile quotient
    equals (1-q^(B-A)) times a quotient of four Pochhammer products, the
    Euler-product form of a known continued fraction.
    """
    p = 4 * (A + B)
    a = 2 * A + 3 * p // 4
    b = 2 * B + p // 4
    g = A + B

    def build(order):
        lhs = rq_star_series(RQSpec(a, b, p), order)
        n = S._whole_steps(order, 1)
        mult = Counter({B - A: 1})
        for start, k in ((2 * A + 3 * g, 1), (2 * B + 3 * g, 1),
                         (2 * A + g, -1), (2 * B + g, -1)):
            for e in range(start, n + 1, 4 * g):
                mult[e] += k
        return lhs, FormalSeries(1, 0, S._euler_product(mult, n))
    return build


def _tau_period_builder(spec: RQSpec):
    def build(order):
        n, p = int(order), int(spec.p)
        tau = TauTable(spec).fill(p * n).values
        return (FormalSeries(1, 1, tau[1:n + 1]),
                FormalSeries(1, 1, tau[p::p][:n]))
    return build


@cache
def identity_registry():
    """The built-in catalog of identities, in verification-ready form.

    Entries marked "proved" must verify at any order; "conjectured" ones
    are empirical observations whose reports carry either the verified
    order or the first failing exponent.  The catalog is built once per
    process: its records are frozen and their builders keep no state.
    """
    R = rq_series
    eta = eta_quotient_series
    nag = normalized_agile_series
    # f(-q) f(-q^10)^2 / (f(-q^2)^2 f(-q^5)), its inverse, and
    # f(-q) f(-q^10) / (f(-q^2) f(-q^5))
    ten = {1: 1, 2: -2, 5: -1, 10: 2}
    ten_inv = {m: -e for m, e in ten.items()}
    ten_sym = {1: 1, 2: -1, 5: -1, 10: 1}
    entries = []

    def add(id, status, denom, build, note=""):
        entries.append(IdentityRecord(id, status, denom, build, note))

    add("cf-expansion-p12", "proved", 1, _cf_product_builder(1, 2),
        "agile quotient (11,7,12) as a continued-fraction product")
    add("cf-expansion-p16", "proved", 1, _cf_product_builder(1, 3),
        "agile quotient (14,10,16) as a continued-fraction product")
    add("tau-prime-period", "proved", 1, _tau_period_builder(RQSpec(1, 2, 5)),
        "tau(5n) = tau(n); the exact content behind the root-of-unity "
        "product splitting of R(q^5)")

    def b_rr_product(order):
        v = R(RQSpec(1, 2, 5), order)
        return v * v.substitute_power(2), R(RQSpec(1, 3, 10), order)
    add("rr-product-1310", "proved", 5, b_rr_product,
        "R(q)R(q^2) equals the (1,3,10) quantity")

    def b_agile_quotient_1310(order):
        v = R(RQSpec(1, 2, 5), order)
        return ((agile_series(1, 10, order) / agile_series(3, 10, order)
                 ).shifted(Fraction(3, 5)), v * v.substitute_power(2))
    add("agile-quotient-1310", "proved", 5, b_agile_quotient_1310,
        "prefactored agile quotient form of the same product")

    def b_agile_product_110(order):
        return (agile_series(1, 10, order) * agile_series(3, 10, order),
                eta(0, ten_sym, order))
    add("agile-product-110", "proved", 1, b_agile_product_110)

    def b_eta_126(order):
        return (R(RQSpec(1, 2, 6), order),
                eta(Fraction(1, 4), {1: 1, 6: 2, 2: -2, 3: -1}, order))
    add("eta-form-126", "proved", 4, b_eta_126)

    def b_eta_inv_y(order):
        return (R(RQSpec(1, 2, 4), order).shifted(Fraction(-1, 8)).inverse(),
                eta(0, {1: -1, 2: 3, 4: -2}, order))
    add("eta-form-inv-124", "proved", 8, b_eta_inv_y,
        "reciprocal of the octic quantity as an eta and odd-product form")

    def b_eta_136(order):
        return (R(RQSpec(1, 3, 6), order),
                eta(Fraction(1, 3), {1: 1, 2: -1, 3: -3, 6: 3}, order))
    add("eta-form-136", "proved", 3, b_eta_136,
        "cubic continued fraction as an eta and odd-product quotient")

    def b_eta_236(order):
        return (R(RQSpec(2, 3, 6), order),
                eta(Fraction(1, 12), {2: 1, 3: -2, 6: 1}, order))
    add("eta-form-236", "proved", 12, b_eta_236)

    def b_sq_1210(order):
        v = R(RQSpec(1, 2, 5), order)
        return (R(RQSpec(1, 2, 10), order) ** 2,
                eta(Fraction(1, 2), ten, order) * v)
    add("square-eta-1210", "proved", 10, b_sq_1210,
        "q^(1/2) prefactor restored; the bare eta form is off by it")

    def b_sq_1410(order):
        v = R(RQSpec(1, 2, 5), order)
        return (R(RQSpec(1, 4, 10), order) ** 2,
                eta(Fraction(1, 2), ten, order) * v
                * v.substitute_power(2) ** 2)
    add("square-eta-1410", "proved", 10, b_sq_1410,
        "q^(1/2) prefactor restored")

    def b_sq_2310(order):
        v = R(RQSpec(1, 2, 5), order)
        return (R(RQSpec(2, 3, 10), order) ** 2,
                eta(Fraction(-1, 2), ten_inv, order) * v
                * v.substitute_power(2) ** 2)
    add("square-eta-2310", "proved", 10, b_sq_2310,
        "q^(-1/2) prefactor restored")

    def b_sq_3410(order):
        v = R(RQSpec(1, 2, 5), order)
        return (R(RQSpec(3, 4, 10), order) ** 2,
                eta(Fraction(1, 2), ten, order) / v)
    add("square-eta-3410", "proved", 20, b_sq_3410,
        "q^(1/2) prefactor restored")

    def b_agile_110_sq(order):
        v = R(RQSpec(1, 2, 5), order)
        return (agile_series(1, 10, order) ** 2,
                eta(Fraction(-3, 5), ten_sym, order) * v
                * v.substitute_power(2))
    add("agile-110-squared", "proved", 5, b_agile_110_sq,
        "square of the radical form for the first decic agile")

    def b_agile_310_sq(order):
        v = R(RQSpec(1, 2, 5), order)
        return (agile_series(3, 10, order) ** 2,
                eta(Fraction(3, 5), ten_sym, order)
                / (v * v.substitute_power(2)))
    add("agile-310-squared", "proved", 5, b_agile_310_sq,
        "square of the radical form for the second decic agile")

    def b_rr_recip(order):
        v = R(RQSpec(1, 2, 5), order)
        return (v.inverse() - S.constant(1, order) - v,
                eta(Fraction(-1, 5), {Fraction(1, 5): 1, 5: -1}, order))
    add("rr-reciprocal-sum", "proved", 5, b_rr_recip)

    def b_rr_recip5(order):
        v5 = R(RQSpec(1, 2, 5), order) ** 5
        return (v5.inverse() - S.constant(11, order) - v5,
                eta(-1, {1: 6, 5: -6}, order))
    add("rr-reciprocal-sum-5th", "proved", 1, b_rr_recip5)

    def b_agile_modular_p5(order):
        x = nag(1, 5, order)
        y = nag(3, 5, order)
        return (x ** 10 - y ** 10 + 11 * (x ** 5 * y ** 5) + x ** 11 * y ** 11,
                S.zero(order))
    add("agile-modular-p5", "proved", 60, b_agile_modular_p5,
        "normalized agiles; the fifth-power reciprocal sum in disguise")

    # empirical polynomial relations between quantities and agiles
    def b_poly_1310(order):
        u = R(RQSpec(1, 3, 10), order)
        v = R(RQSpec(1, 2, 5), order)
        return u ** 3 - u * v + u ** 2 * v ** 3 + v ** 4, S.zero(order)
    add("poly-1310-rr", "conjectured", 5, b_poly_1310)

    def b_minus_q_poly(order):
        v = R(RQSpec(1, 2, 5), order)
        w = at_minus_q(v)  # |R(-q)|; the real branch has R(-q) = -w
        # phases (-1)^(k/5) read as real fifth roots: -1, +1, -1, +1
        return (-1 * v + w - (v ** 5 * w) + 5 * (v ** 4 * w ** 2)
                - 10 * (v ** 3 * w ** 3) + 5 * (v ** 2 * w ** 4)
                - v * w ** 5 - v ** 6 * w ** 5 + v ** 5 * w ** 6,
                S.zero(order))
    add("rr-minus-q-poly", "conjectured", 5, b_minus_q_poly,
        "signed relation between R(q) and R(-q) under the real "
        "fifth-root branch, the reading under which it closes")

    def b_even_doubling_m(order):
        m = m_series(RQSpec(1, 3, 8), int(order))
        return 2 * m.substitute_power(2), m + at_minus_q(m)
    add("m-even-doubling-138", "conjectured", 1, b_even_doubling_m,
        "doubling law for the log-derivative when a,b odd and p even")

    def b_even_doubling_r(order):
        h = R(RQSpec(1, 3, 8), order)
        return h * abs_leading(at_minus_q(h)), h.substitute_power(2)
    add("r-even-doubling-138", "conjectured", 2, b_even_doubling_r)

    def b_even_doubling_1310(order):
        u = R(RQSpec(1, 3, 10), order)
        return u * abs_leading(at_minus_q(u)), u.substitute_power(2)
    add("r-even-doubling-1310", "conjectured", 5, b_even_doubling_1310)

    def b_modular_p6_cubed(order):
        x = nag(1, 6, order, power=3)
        y = nag(3, 6, order)
        return (8 * x ** 9 - y ** 3 + x ** 12 * y ** 3 + x ** 3 * y ** 6,
                S.zero(order))
    add("agile-modular-p6-cubed", "conjectured", 12, b_modular_p6_cubed)

    def b_modular_p6_squared(order):
        x = nag(1, 6, order, power=2)
        y = nag(2, 6, order)
        return (-9 * x ** 8 + y ** 4 + x ** 12 * y ** 4 - x ** 4 * y ** 8,
                S.zero(order))
    add("agile-modular-p6-squared", "conjectured", 6, b_modular_p6_squared)

    def b_modular_p4(order):
        x = nag(1, 4, order)
        y = nag(2, 4, order)
        return 16 * x ** 8 + x ** 16 * y ** 4 - y ** 8, S.zero(order)
    add("agile-modular-p4", "conjectured", 24, b_modular_p4)

    def b_y_x_product(order):
        yq = R(RQSpec(1, 2, 4), order)
        return ((yq ** 16).inverse() - 16 * (yq ** 8).inverse(),
                eta(-2, {2: 24, 4: -24}, order))
    add("octic-x-product", "conjectured", 2, b_y_x_product)

    def b_modular_p6(order):
        x = nag(1, 6, order)
        y = nag(3, 6, order)
        return (8 * x ** 3 - y ** 3 + x ** 12 * y ** 3 + x ** 9 * y ** 6,
                S.zero(order))
    add("agile-modular-p6", "conjectured", 12, b_modular_p6)

    def b_cubic_x_product(order):
        v = R(RQSpec(1, 3, 6), order)
        one = S.constant(1, order)
        return ((one - 8 * v ** 3) / (v ** 9 * (one + v ** 3)),
                eta(-3, {3: 24, 6: -24}, order))
    add("cubic-x-product", "conjectured", 3, b_cubic_x_product)

    return tuple(entries)
