"""Modular-equation mining over exact q-series.

The miner writes a candidate relation sum a_ij u^i v^j = 0, collects the
coefficient of every lattice power of q into a row of an integer matrix,
and reads candidate polynomials off the exact rational nullspace.  Every
candidate is then re-verified on independently rebuilt, longer series
before it is reported.

The u^i v^j series are formed in one place, ``_monomial_series``: they are
the columns of the mining matrix, and a re-verification residual P(u, v)
is the integer combination of the columns of P's monomials, built once
on the longer series for all candidates together.  ``_verdict`` sums a
residual into one coefficient list by index, the way the matrix rows are
filled, with no series arithmetic.

The rows are filled by index: a column's stored coefficients are placed
on the common exponent lattice by integer arithmetic, with no exponent
lookups.  A column u^i v^j is supported on its lead exponent plus
multiples of the step of the underlying q-series, so a row is nonzero
only in the columns of one coset of that step, and the matrix falls apart
into at least one block per coset.  ``linalg.nullspace_rational`` finds
the blocks from the nonzero pattern and solves each on its own, so no
coset arithmetic is needed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Dict, List, Optional, Tuple

from . import quantities as Qm
from . import series as S
from .characters import RQSpec
from .linalg import nullspace_rational
from .series import FormalSeries, _frac

GUARD_ROWS = 30
# candidates are re-verified on series this many times longer
REVERIFY_FACTOR = Fraction(3, 2)


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
        return S._signed_sum(
            (c, "*".join(f"{x}^{k}" if k > 1 else x
                         for x, k in (("u", i), ("v", j)) if k))
            for (i, j), c in self.terms)

    def to_json(self) -> dict:
        return {"terms": [[i, j, c] for (i, j), c in self.terms],
                "degree": self.total_degree,
                "text": str(self)}


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

    def monomials(self) -> List[Tuple[int, int]]:
        return _shape_monomials(self.shape, self.size)

    def lattice_denom(self) -> int:
        return lcm(self.u.lattice_denom(), self.v.lattice_denom())

    def steps(self) -> int:
        """Series order in lattice steps.

        By default, the fewest steps that give a row for every monomial
        and guard row, and never fewer than one step more than that
        count.  Every column is cut like a product with the constant 1,
        which is known to floor(order) on whole q-units, so the rows run
        over floor(order) units from the lowest column lead: there are
        ``denom * floor(order) + 1`` of them.
        """
        if self.order_steps is not None:
            return self.order_steps
        needed = len(self.monomials()) + GUARD_ROWS
        denom = self.lattice_denom()
        units = -(-(needed - 1) // denom)
        return max(1 + needed, units * denom)

    def to_json(self) -> dict:
        return {"u": self.u.to_json(), "v": self.v.to_json(),
                "shape": self.shape, "size": self.size,
                "order_steps": self.steps(),
                "reverify_factor": str(REVERIFY_FACTOR)}


def _monomial_series(u: FormalSeries, v: FormalSeries,
                     monomials) -> Dict[Tuple[int, int], FormalSeries]:
    """The u^i v^j column of every monomial, from shared powers of u and v."""
    max_i = max((i for i, _ in monomials), default=0)
    max_j = max((j for _, j in monomials), default=0)
    order = min(u.trunc, v.trunc)
    one = S.constant(1, order)

    def times_one(p):  # p * one, without the convolution
        return p if p.is_zero else p.truncated(p.lead_exponent + one.trunc)

    u_pows = [one, times_one(u)]
    for _ in range(max_i - 1):
        u_pows.append(u_pows[-1] * u)
    v_pows = [one, times_one(v)]
    for _ in range(max_j - 1):
        v_pows.append(v_pows[-1] * v)
    # each power is already cut like a product with ``one``, so a column
    # with i = 0 or j = 0 is the power itself
    return {(i, j): u_pows[i] * v_pows[j] if i and j
            else u_pows[i] if i else v_pows[j] for i, j in monomials}


def _verdict(poly: BivariatePolynomial, columns: dict, order) -> dict:
    """Judge P(u, v) = sum c_ij u^i v^j from its prebuilt columns.

    ``columns`` maps (i, j) to the u^i v^j series.  The residual is one
    coefficient list on the common lattice of P's own columns, summed
    column by column with integer arithmetic up to the limit min(order,
    the lowest truncation among those columns), where every exponent is
    known.  P fails at the first nonzero entry and otherwise holds to
    that limit.
    """
    cols = [(columns[ij], c) for ij, c in poly.terms]
    limit = min(order, *(col.trunc for col, _ in cols))
    cols = [(col, c) for col, c in cols if not col.is_zero]
    denom = lcm(*(col.denom for col, _ in cols))
    n_lo = min((col.lead * (denom // col.denom) for col, _ in cols),
               default=0)
    size = limit.numerator * denom // limit.denominator - n_lo + 1
    acc = [0] * size
    for col, c in cols:
        step = denom // col.denom
        start = col.lead * step - n_lo
        if start < size:
            where = slice(start, size, step)
            acc[where] = map(add, acc[where], map(mul, col.coeffs, repeat(c)))
    for n, x in enumerate(acc):
        if x:
            return {"verdict": "fails_at",
                    "fails_at": str(Fraction(n_lo + n, denom))}
    return {"verdict": "holds_to_order", "order": str(limit)}


def _coefficient_matrix(columns: List[FormalSeries]):
    """Rows of lattice coefficients; returns (matrix, checked_exponent).

    The row range starts at the lowest exponent any monomial reaches and
    extends as far as every column is defined; the caller decides whether
    that is enough rows.  On the common lattice ``denom``, a column's k-th
    stored coefficient is the one of exponent numerator
    (lead + k) * (denom // column denom), which gives its row by index.
    """
    denom = 1
    for col in columns:
        denom = lcm(denom, col.denom)
    lo = min(col.lead_exponent if not col.is_zero else col.trunc
             for col in columns)
    hi = min(col.trunc for col in columns)
    n_lo = int(lo * denom)
    n_hi = int(hi * denom)
    rows = [[0] * len(columns) for _ in range(n_lo, n_hi + 1)]
    for k, col in enumerate(columns):
        step = denom // col.denom
        n = col.lead * step - n_lo
        for c in col.coeffs:
            if n >= len(rows):
                break
            if c:
                rows[n][k] = c
            n += step
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
    matrix, _ = _coefficient_matrix(list(columns.values()))
    n_rows = len(matrix)
    if n_rows < len(monomials) + GUARD_ROWS:
        raise MiningError(
            f"only {n_rows} usable coefficient rows for "
            f"{len(monomials)} monomials; raise order_steps")
    basis = nullspace_rational(matrix)
    del u, v, columns, matrix  # free the mining phase before re-verifying
    candidates = []
    for vec in basis:
        coeffs = {ij: c for ij, c in zip(monomials, vec) if c}
        if coeffs:
            candidates.append(BivariatePolynomial.build(coeffs))

    # soundness gate: rebuild longer series and judge every candidate on
    # one set of columns covering all their monomials
    re_order = order * REVERIFY_FACTOR
    u2 = job.u.build(re_order)
    v2 = job.v.build(re_order)
    re_order = min(re_order, u2.trunc, v2.trunc)
    columns = _monomial_series(
        u2, v2, {ij for poly in candidates for ij, _ in poly.terms})
    kept, dropped = [], []
    for poly in candidates:
        verdict = _verdict(poly, columns, re_order)
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
            "matrix_rows": n_rows,
            "polynomials": [p.to_json() for p in kept],
            "dropped_candidates": dropped,
        })
    return kept


def verify_relation(poly: BivariatePolynomial, u: FormalSeries,
                    v: FormalSeries, order) -> dict:
    """Substitute and report the first nonzero residual exponent, if any."""
    order = _frac(order)
    avail = min(u.trunc, v.trunc)
    if order > avail:
        raise MiningError(
            f"verification to order {order} requested but series known "
            f"only to {avail}")
    return _verdict(poly, _monomial_series(u, v, [ij for ij, _ in poly.terms]),
                    order)


def n_series(spec: RQSpec, order) -> FormalSeries:
    """The derivative-normalizing series q^(-1/6) f(-q)^(-4) M(q).

    Takes algebraic values at singular nomes and satisfies its own
    modular equations; built exactly from the eta and M series.
    """
    order = _frac(order)
    rel = order + Fraction(1, 6) + 1
    f4_inv = Qm.eta_quotient_series(0, {1: -4}, rel)
    m = Qm.m_series(spec, int(rel) + 1)
    return (m * f4_inv).shifted(Fraction(-1, 6)).truncated(order)
