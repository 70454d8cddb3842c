"""End-to-end acceptance checks, one test per criterion.

Each criterion records a single PASS/FAIL line (printed in the terminal
summary) and enforces the stated tolerance exactly; the unit-test files
cover the same machinery at smaller scale.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from rqwork import modeq, numerics, quantities
from rqwork.characters import RQSpec, SpecError, TauTable, tau_relation_scan
from rqwork.linalg import primitive, row_echelon_int
from rqwork.modeq import BivariatePolynomial, MiningJob, SeriesRecipe

RESULTS = []


@contextmanager
def criterion(n, desc):
    try:
        yield
    except Exception:
        RESULTS.append(f"FAIL criterion {n}: {desc}")
        raise
    RESULTS.append(f"PASS criterion {n}: {desc}")


def poly(terms: dict) -> BivariatePolynomial:
    return BivariatePolynomial.build(terms)


# expected modular equations, keyed by a short label;
# entries: (u recipe, v recipe, shape size, expected polynomial)
MINING_TARGETS = [
    ("quartic-nu2", (1, 2, 4), 1, 2, 4,
     poly({(4, 0): 1, (0, 2): -1, (4, 4): 4})),
    ("quartic-nu3", (1, 2, 4), 1, 3, 4,
     poly({(4, 0): 1, (1, 1): -1, (3, 3): 4, (0, 4): -1})),
    ("quartic-nu5", (1, 2, 4), 1, 5, 6,
     poly({(6, 0): 1, (1, 1): -1, (4, 2): 5, (2, 4): -5, (5, 5): 16,
           (0, 6): -1})),
    ("quartic-nu7", (1, 2, 4), 1, 7, 8,
     poly({(8, 0): 1, (1, 1): -1, (2, 2): 7, (3, 3): -28, (4, 4): 70,
           (5, 5): -112, (6, 6): 112, (7, 7): -64, (0, 8): 1})),
    ("cubic-nu5", (1, 3, 6), 1, 5, 6,
     poly({(6, 0): 1, (1, 1): -1, (4, 1): 5, (2, 2): 5, (5, 2): -10,
           (3, 3): -20, (1, 4): 5, (4, 4): 20, (2, 5): -10, (5, 5): -16,
           (0, 6): 1})),
    ("cubic-nu7", (1, 3, 6), 1, 7, 8,
     poly({(8, 0): 1, (1, 1): -1, (4, 1): 7, (6, 2): 28, (5, 3): -56,
           (1, 4): 7, (4, 4): 21, (7, 4): -56, (3, 5): -56, (2, 6): 28,
           (4, 7): -56, (7, 7): -64, (0, 8): 1})),
    ("cf12-nu2", (11, 7, 12), 1, 2, 2,
     poly({(2, 0): -1, (0, 1): 1, (1, 1): -2, (2, 1): 1, (0, 2): -1})),
    ("cf12-nu3", (11, 7, 12), 1, 3, 3,
     poly({(3, 0): 1, (0, 1): -1, (1, 1): 3, (3, 1): -1, (0, 2): 1,
           (2, 2): -3, (3, 2): 1, (0, 3): -1})),
    ("cf16-nu2", (14, 10, 16), 1, 2, 2,
     poly({(2, 0): 1, (0, 1): -1, (2, 1): 1, (0, 2): 1})),
    ("cf16-nu3", (14, 10, 16), 1, 3, 4,
     poly({(3, 0): 1, (0, 1): -1, (2, 1): 3, (1, 2): 3, (3, 2): -3,
           (2, 3): -3, (4, 3): 1, (1, 4): -1})),
]

CROSS_TARGET = poly({(3, 0): 1, (1, 1): -1, (2, 3): 1, (0, 4): 1})


def test_criterion_1_mining_reproduction():
    with criterion(1, "mining recovers all eleven target modular equations"):
        for label, spec, alpha, beta, size, expected in MINING_TARGETS:
            t0 = time.perf_counter()
            job = MiningJob(SeriesRecipe(RQSpec(*spec), Fraction(alpha)),
                            SeriesRecipe(RQSpec(*spec), Fraction(beta)),
                            shape="box", size=size)
            assert job.steps() <= 400, label
            found = modeq.mine(job)
            assert expected in found, f"{label}: got {[str(p) for p in found]}"
            assert time.perf_counter() - t0 < 120, label
        # cross-quantity relation between the (1,3,10) and (1,2,5) series
        t0 = time.perf_counter()
        found = modeq.mine(MiningJob(SeriesRecipe(RQSpec(1, 3, 10)),
                                     SeriesRecipe(RQSpec(1, 2, 5)), size=4))
        assert CROSS_TARGET in found
        assert time.perf_counter() - t0 < 120


def test_criterion_2_tau_scan_reproduction():
    with criterion(2, "tau scans adjudicate the published relation vectors "
                      "(three confirmed, four refuted with witnesses)"):
        t0 = time.perf_counter()
        rels = tau_relation_scan(RQSpec(1, 4, 17), 17, 289)
        vectors = {tuple(r.coeffs) for r in rels}

        def vec(J, support):
            out = [0] * J
            for j, c in support.items():
                out[j - 1] = c
            return tuple(primitive([Fraction(c) for c in out]))

        assert vec(17, {1: -4, 4: 3, 16: 1}) in vectors
        assert vec(17, {1: -4, 2: 4, 4: -1, 8: 1}) in vectors
        assert time.perf_counter() - t0 < 30

        t0 = time.perf_counter()
        spec = RQSpec(1, 5, 26)
        rels = tau_relation_scan(spec, 26, 289)
        basis = [list(r.coeffs) for r in rels]
        table = TauTable(spec).fill(26 * 1156)

        def residual(v, n):
            return sum(c * table.values[j * n]
                       for j, c in enumerate(v, start=1))

        def in_span(v):
            before = len(row_echelon_int([row[:] for row in basis]))
            after = len(row_echelon_int([row[:] for row in basis] + [list(v)]))
            return after == before

        # the five-power vector is genuine: exact on the sample range and
        # inside the mined nullspace
        confirmed = vec(26, {1: -5, 5: 4, 25: 1})
        assert all(residual(confirmed, n) == 0 for n in range(1, 1157))
        assert in_span(confirmed)

        # the other four published vectors are not relations at all; the
        # scan refutes each with a small witness and excludes it from the
        # mined nullspace
        refuted = [
            ({1: -1, 3: 1, 5: -1, 15: 1}, 7),
            ({1: Fraction(-26, 77), 3: Fraction(-17, 7), 7: Fraction(17, 7),
              11: Fraction(-51, 77), 17: 1}, 27),
            ({1: Fraction(-134, 77), 3: Fraction(19, 7), 7: Fraction(-19, 7),
              11: Fraction(57, 77), 19: 1}, 27),
            ({1: Fraction(-34, 11), 11: Fraction(23, 11), 23: 1}, 77),
        ]
        for support, witness in refuted:
            v = vec(26, support)
            assert residual(v, witness) != 0, support
            assert not in_span(v), support
        assert time.perf_counter() - t0 < 30


def test_criterion_3_product_identity():
    with criterion(3, "character product equals the prefactor-free series "
                      "to order 300 for p <= 12"):
        checked = 0
        for p in range(2, 13):
            for a in range(1, p):
                for b in range(a + 1, p):
                    if 2 * a == p or 2 * b == p:
                        continue  # doubled factor; the character undercounts
                    try:
                        spec = RQSpec(a, b, p)
                        lhs = quantities.rq_star_series(spec, 300)
                        rhs = quantities.product_over_X(spec, 300)
                    except SpecError:
                        continue
                    assert lhs == rhs, str(spec)
                    checked += 1
        assert checked > 100


def test_criterion_4_tau_prime_periodicity():
    with criterion(4, "tau(p n) = tau(n) for prime p up to n = 5000"):
        for spec in [RQSpec(1, 2, 5), RQSpec(1, 3, 7),
                     RQSpec(1, 4, 17), RQSpec(2, 3, 11)]:
            p = int(spec.p)
            table = TauTable(spec).fill(5000 * p)
            for n in range(1, 5001):
                assert table.values[p * n] == table.values[n], (str(spec), n)


def test_criterion_5_even_doubling_log_derivative():
    with criterion(5, "2M(q^2) - M(q) - M(-q) vanishes to order 200"):
        m = quantities.m_series(RQSpec(1, 3, 8), 201)
        m2 = quantities.m_series(RQSpec(1, 3, 8), 101).substitute_power(2)
        diff = 2 * m2 - m - quantities.at_minus_q(m)
        for e, c in diff.terms():
            assert not (c and e <= 200), f"nonzero at {e}"
        assert Fraction(diff.trunc) >= 200


def test_criterion_6_derivative_series_modular_equations():
    with criterion(6, "derivative-normalized series satisfies its "
                      "doubling and tripling equations"):
        spec = RQSpec(1, 2, 5)
        u = modeq.n_series(spec, 90)
        v = modeq.n_series(spec, 45).substitute_power(2)
        duo = poly({(6, 0): 5, (2, 2): -1, (4, 4): -125, (0, 6): 5})
        verdict = modeq.verify_relation(duo, u, v, 80)
        assert verdict["verdict"] == "holds_to_order", verdict
        assert Fraction(verdict["order"]) >= 80

        u = modeq.n_series(spec, 128)
        v = modeq.n_series(spec, 43).substitute_power(3)
        trio = poly({(12, 0): 125, (3, 3): 1, (9, 3): 1125, (3, 9): 1125,
                     (9, 9): 1953125, (0, 12): -125})
        verdict = modeq.verify_relation(trio, u, v, 120)
        assert verdict["verdict"] == "holds_to_order", verdict
        assert Fraction(verdict["order"]) >= 120


def test_criterion_7_numeric_coherence():
    with criterion(7, "theta, product and continued-fraction forms agree"):
        ctx = numerics.context(60)
        mp = ctx.mp
        for spec in [RQSpec(1, 2, 5), RQSpec(1, 3, 8)]:
            for r in (1, 2):
                x = mp.pi * mp.sqrt(r)
                theta = numerics.theta_form_rq(spec, x, ctx)
                product = numerics.eval_rq(spec, mp.exp(-x), ctx)
                assert abs(theta - product) < mp.mpf(10) ** -45, (str(spec), r)
        q = mp.mpf("0.2")
        cf = numerics.eval_cf("theorem_quotient", (1, 2), q, ctx)
        product = numerics.eval_agile(11, 12, q, ctx) \
            / numerics.eval_agile(7, 12, q, ctx)
        assert abs(cf - product) < mp.mpf(10) ** -25


def test_criterion_8_elliptic_checks():
    with criterion(8, "singular modulus, closed values and derivative "
                      "formulas at stated tolerances"):
        ctx = numerics.context(60)
        mp = ctx.mp
        data = numerics.singular_modulus(1, ctx)
        assert abs(data.k - 1 / mp.sqrt(2)) < mp.mpf(10) ** -40

        H = numerics.eval_rq(RQSpec(1, 3, 8), mp.exp(-mp.pi), ctx)
        t = data.k / (1 - data.kp)
        assert abs(H - (-t + mp.sqrt(t * t + 1))) < mp.mpf(10) ** -30

        for r in (1, 2, 3):
            rep = numerics.check_singular_relations(r, ctx)
            assert mp.mpf(rep["octic_abs_err"]) < mp.mpf(10) ** -25, r
            assert mp.mpf(rep["cubic_abs_err"]) < mp.mpf(10) ** -25, r

        for case in ("rgg", "cubic"):
            for r in (1, 2):
                rep = numerics.check_derivative_formulas(case, r, ctx)
                rel = mp.mpf(rep["abs_err"]) / abs(mp.mpf(rep["lhs"]))
                assert rel < mp.mpf(10) ** -20, (case, r)


def test_criterion_9_recognition():
    with criterion(9, "algebraic recognition and radical adjudication"):
        ctx = numerics.context(60)
        mp = ctx.mp
        found = numerics.recognize_algebraic(mp.mpf("0.5"), 4, ctx)
        assert found and found["coeffs"] == [-1, 2]
        found = numerics.recognize_algebraic(mp.sqrt(2) - 1, 4, ctx)
        assert found and found["coeffs"] == [-1, 2, 1]
        H = numerics.eval_rq(RQSpec(1, 3, 8), mp.exp(-mp.pi), ctx)
        found = numerics.recognize_algebraic(H, 4, ctx)
        assert found and found["degree"] <= 4
        # the circulated radical for this value has the wrong inner sign
        rep = numerics.check_gg_value(ctx)
        assert rep["verdict"] == "confirmed"
        assert rep["printed_radical_verdict"] == "refuted"
        assert mp.mpf(rep["corrected_radical_abs_err"]) < mp.mpf(10) ** -40
        # conjectured closed value of the quartic quantity's derivative
        rep = numerics.check_derivative_formulas("example-quartic", 1, ctx)
        assert rep["verdict"] == "confirmed", rep


def test_criterion_10_identity_registry():
    with criterion(10, "identity registry verifies to 200 lattice steps"):
        reports = [rec.verify(steps=200)
                   for rec in quantities.identity_registry()]
        assert len(reports) >= 25
        for rep in reports:
            if rep["status"] == "proved":
                assert "first_failure_exponent" not in rep, rep
                assert rep["verified_steps"] >= 200, rep
            else:
                ok = rep.get("verified_steps", 0) >= 200 \
                    or "first_failure_exponent" in rep
                assert ok, rep
