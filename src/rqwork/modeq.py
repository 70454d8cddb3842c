"""Modular-equation mining over exact q-series.

The miner writes a candidate relation sum a_ij u^i v^j = 0, collects the
coefficient of every lattice power of q into a row of an integer matrix,
and reads candidate polynomials off the exact rational nullspace.  Every
candidate is then re-verified on independently rebuilt, longer series
before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple

from . import quantities as Qm
from . import series as S
from .characters import RQSpec, SpecError
from .linalg import nullspace_rational
from .series import FormalSeries, _frac

GUARD_ROWS = 30


@dataclass(frozen=True)
class BivariatePolynomial:
    """Integer polynomial in u and v, canonically scaled.

    Canonical form: coefficient gcd 1 and positive leading coefficient
    under graded lexicographic order.  ``terms`` maps (i, j) to the
    integer coefficient of u^i v^j.
    """

    terms: Tuple[Tuple[Tuple[int, int], int], ...]

    @classmethod
    def build(cls, coeffs: dict) -> "BivariatePolynomial":
        items = [(ij, int(c)) for ij, c in coeffs.items() if c]
        if not items:
            raise ValueError("zero polynomial")
        from math import gcd
        g = 0
        for _, c in items:
            g = gcd(g, c)
        items = [(ij, c // g) for ij, c in items]
        # graded-lex leading term gets a positive coefficient
        lead = max(items, key=lambda t: (t[0][0] + t[0][1], t[0]))
        if lead[1] < 0:
            items = [(ij, -c) for ij, c in items]
        items.sort(key=lambda t: (t[0][1], t[0][0]))
        return cls(tuple(items))

    @property
    def total_degree(self) -> int:
        return max(i + j for (i, j), _ in self.terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __str__(self):
        parts = []
        for (i, j), c in self.terms:
            mono = "*".join(
                ([f"u^{i}" if i > 1 else "u"] if i else [])
                + ([f"v^{j}" if j > 1 else "v"] if j else []))
            mag = abs(c)
            body = mono if mono else "1"
            if mag != 1 or not mono:
                body = f"{mag}*{mono}" if mono else str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"terms": [[i, j, c] for (i, j), c in self.terms],
                "degree": self.total_degree,
                "text": str(self)}

    def evaluate(self, u: FormalSeries, v: FormalSeries) -> FormalSeries:
        """P(u, v) as a truncated series, by Horner in v."""
        max_j = max(j for (_, j), _ in self.terms)
        rows = {}
        for (i, j), c in self.terms:
            rows.setdefault(j, {})[i] = c
        order = min(u.trunc, v.trunc)
        result = None
        for j in range(max_j, -1, -1):
            if result is not None:
                result = result * v
            part = rows.get(j)
            if part:
                chunk = _poly_in(u, part, order)
                result = chunk if result is None else result + chunk
        return result

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) \
            and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)


def _poly_in(u: FormalSeries, coeffs: dict, order) -> FormalSeries:
    """sum coeffs[i] * u^i by Horner."""
    top = max(coeffs)
    result = S.constant(coeffs.get(top, 0), order)
    for i in range(top - 1, -1, -1):
        result = result * u
        c = coeffs.get(i)
        if c:
            result = result + S.constant(c, order)
    return result


@dataclass(frozen=True)
class SeriesRecipe:
    """A Ramanujan quantity R(spec; q^power), the miner's variable."""

    spec: RQSpec
    power: Fraction = Fraction(1)

    def lattice_denom(self) -> int:
        q = self.spec.Q * self.power
        return lcm(q.denominator, self.power.denominator)

    def build(self, order) -> FormalSeries:
        order = _frac(order)
        base = Qm.rq_series(self.spec, order / self.power + 1)
        return base.substitute_power(self.power).truncated(order)

    def to_json(self) -> dict:
        return {"spec": str(self.spec), "power": str(self.power)}


def _shape_monomials(shape: str, s: int) -> List[Tuple[int, int]]:
    if shape == "box":
        return [(i, j) for j in range(s + 1) for i in range(s + 1)]
    if shape == "total":
        return [(i, j) for j in range(s + 1) for i in range(s + 1 - j)]
    raise ValueError(f"unknown shape {shape!r}")


@dataclass
class MiningJob:
    """Everything needed to reproduce one mining run."""

    u: SeriesRecipe
    v: SeriesRecipe
    shape: str = "box"
    size: int = 4
    order_steps: Optional[int] = None  # lattice steps; defaulted from size
    reverify_factor: Fraction = Fraction(3, 2)

    def monomials(self) -> List[Tuple[int, int]]:
        return _shape_monomials(self.shape, self.size)

    def lattice_denom(self) -> int:
        return lcm(self.u.lattice_denom(), self.v.lattice_denom())

    def steps(self) -> int:
        if self.order_steps is not None:
            return self.order_steps
        return 1 + len(self.monomials()) + GUARD_ROWS

    def to_json(self) -> dict:
        return {"u": self.u.to_json(), "v": self.v.to_json(),
                "shape": self.shape, "size": self.size,
                "order_steps": self.steps(),
                "reverify_factor": str(self.reverify_factor)}


def _monomial_series(u: FormalSeries, v: FormalSeries,
                     monomials) -> List[FormalSeries]:
    """All u^i v^j columns, built incrementally."""
    max_i = max(i for i, _ in monomials)
    max_j = max(j for _, j in monomials)
    order = min(u.trunc, v.trunc)
    one = S.constant(1, order)
    u_pows = [one]
    for _ in range(max_i):
        u_pows.append(u_pows[-1] * u)
    v_pows = [one]
    for _ in range(max_j):
        v_pows.append(v_pows[-1] * v)
    return [u_pows[i] * v_pows[j] for i, j in monomials]


def _coefficient_matrix(columns: List[FormalSeries]):
    """Rows of lattice coefficients; returns (matrix, checked_exponent).

    The row range starts at the lowest exponent any monomial reaches and
    extends as far as every column is defined; the caller decides whether
    that is enough rows.
    """
    denom = 1
    for col in columns:
        denom = lcm(denom, col.denom)
    lo = min(col.lead_exponent if not col.is_zero else col.trunc
             for col in columns)
    hi = min(col.trunc for col in columns)
    n_lo = int(lo * denom)
    n_hi = int(hi * denom)
    rows = []
    for n in range(n_lo, n_hi + 1):
        e = Fraction(n, denom)
        rows.append([col.coeff(e) for col in columns])
    return rows, Fraction(n_hi, denom)


class MiningError(ValueError):
    pass


def mine(job: MiningJob, report: Optional[dict] = None
         ) -> List[BivariatePolynomial]:
    """Nullspace mining with an independent re-verification gate.

    Returns canonical polynomials sorted by total degree then term
    count.  If ``report`` is a dict it is filled with the job record,
    the emitted polynomials and any dropped candidates.
    """
    monomials = job.monomials()
    denom = job.lattice_denom()
    steps = job.steps()
    if steps < len(monomials) + GUARD_ROWS:
        raise MiningError(
            f"series order {steps} lattice steps is too small for "
            f"{len(monomials)} monomials plus {GUARD_ROWS} guard rows")
    order = Fraction(steps, denom)
    u = job.u.build(order)
    v = job.v.build(order)
    columns = _monomial_series(u, v, monomials)
    matrix, _ = _coefficient_matrix(columns)
    if len(matrix) < len(monomials) + GUARD_ROWS:
        raise MiningError(
            f"only {len(matrix)} usable coefficient rows for "
            f"{len(monomials)} monomials; raise order_steps")
    basis = nullspace_rational(matrix)
    candidates = []
    for vec in basis:
        coeffs = {ij: c for ij, c in zip(monomials, vec) if c}
        if coeffs:
            candidates.append(BivariatePolynomial.build(coeffs))

    # soundness gate: rebuild longer series and substitute
    re_order = order * job.reverify_factor
    u2 = job.u.build(re_order)
    v2 = job.v.build(re_order)
    re_order = min(re_order, u2.trunc, v2.trunc)
    kept, dropped = [], []
    for poly in candidates:
        verdict = verify_relation(poly, u2, v2, re_order)
        if verdict["verdict"] == "holds_to_order":
            kept.append(poly)
        else:
            dropped.append({"polynomial": poly.to_json(),
                            "fails_at": verdict["fails_at"]})
    kept.sort(key=lambda p: (p.total_degree, p.term_count, p.terms))
    if report is not None:
        report.update({
            "job": job.to_json(),
            "lattice_denom": denom,
            "matrix_rows": len(matrix),
            "polynomials": [p.to_json() for p in kept],
            "dropped_candidates": dropped,
        })
    return kept


def mine_cross(u_recipe: SeriesRecipe, v_recipe: SeriesRecipe,
               shape: str = "box", size: int = 4,
               order_steps: Optional[int] = None,
               report: Optional[dict] = None) -> List[BivariatePolynomial]:
    """Mining between two different quantities (or powers thereof)."""
    job = MiningJob(u_recipe, v_recipe, shape=shape, size=size,
                    order_steps=order_steps)
    return mine(job, report=report)


def verify_relation(poly: BivariatePolynomial, u: FormalSeries,
                    v: FormalSeries, order) -> dict:
    """Substitute and report the first nonzero residual exponent, if any."""
    order = _frac(order)
    avail = min(u.trunc, v.trunc)
    if order > avail:
        raise MiningError(
            f"verification to order {order} requested but series known "
            f"only to {avail}")
    residual = poly.evaluate(u, v)
    for e, c in residual.terms():
        if c and e <= order:
            return {"verdict": "fails_at", "fails_at": str(e)}
    checked = min(residual.trunc, order)
    return {"verdict": "holds_to_order", "order": str(checked)}


def n_series(spec: RQSpec, order) -> FormalSeries:
    """The derivative-normalizing series q^(-1/6) f(-q)^(-4) M(q).

    Takes algebraic values at singular nomes and satisfies its own
    modular equations; built exactly from the eta and M series.
    """
    order = _frac(order)
    rel = order + Fraction(1, 6) + 1
    f4 = Qm.f_minus_q_power(1, rel) ** 4
    m = Qm.m_series(spec, int(rel) + 1)
    pre = S.make_series([(Fraction(-1, 6), 1)], order)
    return (pre * (m / f4)).truncated(order)
