"""Unit tests for polynomial canonicalization and nullspace mining."""

import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqwork import quantities as Q
from rqwork import series as S
from rqwork.characters import RQSpec
from rqwork.cli import dispatch
from rqwork.modeq import (BivariatePolynomial, MiningError, MiningJob,
                          SeriesRecipe, _coefficient_matrix, _verdict, mine,
                          n_series, verify_relation)


class TestPolynomial:
    def test_canonical_scaling(self):
        a = BivariatePolynomial.build({(2, 0): 2, (0, 1): -2})
        b = BivariatePolynomial.build({(2, 0): 1, (0, 1): -1})
        c = BivariatePolynomial.build({(2, 0): -3, (0, 1): 3})
        assert a == b == c
        assert len({a, b, c}) == 1

    def test_content_cleared(self):
        p = BivariatePolynomial.build({(1, 0): 4, (0, 1): -6})
        assert dict(p.terms) == {(1, 0): 2, (0, 1): -3}

    def test_text_rendering(self):
        p = BivariatePolynomial.build({(4, 0): 1, (0, 2): -1, (4, 4): 4})
        assert str(p) == "u^4 - v^2 + 4*u^4*v^4"
        p = BivariatePolynomial.build({(10, 0): 1, (5, 1): 1, (5, 0): 11,
                                       (0, 0): -1})
        assert str(p) == "-1 + 11*u^5 + u^10 + u^5*v"

    def test_degree_and_count(self):
        p = BivariatePolynomial.build({(4, 0): 1, (0, 2): -1, (4, 4): 4})
        assert p.total_degree == 8
        assert p.term_count == 3

    def test_verify_relation_on_series(self):
        u = S.make_series([(1, 1)], 10)
        v = S.make_series([(2, 1)], 20)
        p = BivariatePolynomial.build({(2, 0): 1, (0, 1): -1})
        assert verify_relation(p, u, v, 10) == {"verdict": "holds_to_order",
                                                "order": "10"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BivariatePolynomial.build({})


class TestMining:
    def test_doubling_equation(self):
        spec = RQSpec(1, 2, 4)
        job = MiningJob(SeriesRecipe(spec, 1), SeriesRecipe(spec, 2),
                        shape="box", size=4)
        report = {}
        found = mine(job, report=report)
        target = BivariatePolynomial.build(
            {(4, 0): 1, (0, 2): -1, (4, 4): 4})
        assert target in found
        assert report["dropped_candidates"] == []
        assert report["polynomials"][0]["terms"]

    def test_cross_mining(self):
        found = mine(MiningJob(SeriesRecipe(RQSpec(1, 3, 10), 1),
                               SeriesRecipe(RQSpec(1, 2, 5), 1), size=4))
        target = BivariatePolynomial.build(
            {(3, 0): 1, (1, 1): -1, (2, 3): 1, (0, 4): 1})
        assert target in found
        assert [str(p) for p in found] == ["u^3 - u*v + u^2*v^3 + v^4",
                                           "u^4 - u^2*v + u^3*v^3 + u*v^4"]

    def test_too_small_order_raises(self):
        spec = RQSpec(1, 2, 5)
        job = MiningJob(SeriesRecipe(spec, 1), SeriesRecipe(spec, 2),
                        shape="box", size=4, order_steps=10)
        with pytest.raises(MiningError):
            mine(job)

    def test_verify_relation_detects_perturbation(self):
        spec = RQSpec(1, 2, 4)
        u = Q.rq_series(spec, 30)
        v = Q.rq_series(spec, 60).substitute_power(2).truncated(30)
        good = BivariatePolynomial.build({(4, 0): 1, (0, 2): -1, (4, 4): 4})
        assert verify_relation(good, u, v, 25)["verdict"] == "holds_to_order"
        bad = BivariatePolynomial.build({(4, 0): 1, (0, 2): -1, (4, 4): 5})
        verdict = verify_relation(bad, u, v, 25)
        assert verdict["verdict"] == "fails_at"

    def test_verify_relation_respects_truncation(self):
        spec = RQSpec(1, 2, 4)
        u = Q.rq_series(spec, 10)
        v = Q.rq_series(spec, 20).substitute_power(2).truncated(10)
        good = BivariatePolynomial.build({(4, 0): 1, (0, 2): -1, (4, 4): 4})
        with pytest.raises(MiningError):
            verify_relation(good, u, v, 50)


class TestNormalizedSeries:
    def test_n_series_satisfies_doubling(self):
        u = n_series(RQSpec(1, 2, 5), 60)
        v = n_series(RQSpec(1, 2, 5), 30).substitute_power(2)
        poly = BivariatePolynomial.build(
            {(6, 0): 5, (2, 2): -1, (4, 4): -125, (0, 6): 5})
        verdict = verify_relation(poly, u, v, 50)
        assert verdict["verdict"] == "holds_to_order"

    def test_recipe_lattice(self):
        recipe = SeriesRecipe(RQSpec(1, 2, 5), Fraction(1, 2))
        s = recipe.build(Fraction(5))
        assert s.coeff(Fraction(1, 10)) == 1
        assert recipe.to_json()["power"] == "1/2"


# verify_relation against plain ring arithmetic on small random series

series_st = st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=1, max_size=6).map(
    lambda cs: S.make_series(list(enumerate(cs)), len(cs)))
poly_st = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(min_value=-5, max_value=5).filter(bool),
    min_size=1, max_size=5)


def _times_u2_minus_v(coeffs):
    """coeffs * (u^2 - v): a relation that holds whenever v = u^2."""
    out = {}
    for (i, j), c in coeffs.items():
        out[(i + 2, j)] = out.get((i + 2, j), 0) + c
        out[(i, j + 1)] = out.get((i, j + 1), 0) - c
    return out


def _plain_verdict(poly, u, v, order):
    residual = sum(c * u ** i * v ** j for (i, j), c in poly.terms)
    for e, _ in residual.terms():
        if e <= order:
            return {"verdict": "fails_at", "fails_at": str(e)}
    return {"verdict": "holds_to_order",
            "order": str(min(residual.trunc, order))}


@settings(max_examples=60, deadline=None)
@given(series_st, series_st, poly_st, st.booleans(),
       st.integers(min_value=0, max_value=6))
def test_verify_relation_matches_plain_arithmetic(u, v, coeffs, related, k):
    if related:
        v = u * u
        coeffs = _times_u2_minus_v(coeffs)
    poly = BivariatePolynomial.build(coeffs)
    order = min(Fraction(k), u.trunc, v.trunc)
    verdict = verify_relation(poly, u, v, order)
    assert verdict == _plain_verdict(poly, u, v, order)
    if related:
        assert verdict["verdict"] == "holds_to_order"


def test_zero_residual_holds_to_fractional_order():
    u = Q.rq_series(RQSpec(1, 2, 5), Fraction(31, 5))
    poly = BivariatePolynomial.build({(1, 0): 1, (0, 1): -1})
    verdict = verify_relation(poly, u, u, u.trunc)
    assert verdict == {"verdict": "holds_to_order", "order": "31/5"}


def test_zero_residual_keeps_truncation_of_its_columns():
    # (q^(1/2) + q) - q^(1/2) lies on the integer lattice, but all three
    # columns are known to 5/2, so the zero residual is too
    columns = {(1, 0): S.make_series([(Fraction(1, 2), 1), (1, 1)],
                                     Fraction(5, 2)),
               (0, 1): S.make_series([(Fraction(1, 2), -1)], Fraction(5, 2)),
               (1, 1): S.make_series([(1, -1)], 3)}
    poly = BivariatePolynomial.build({(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert _verdict(poly, columns, 3) == {"verdict": "holds_to_order",
                                          "order": "5/2"}


# the index-addressed mining rows against per-exponent coeff() lookups

column_st = st.builds(
    S.FormalSeries, st.integers(1, 6), st.integers(-4, 8),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=10))


@settings(max_examples=100, deadline=None)
@given(st.lists(column_st, min_size=1, max_size=4))
def test_coefficient_matrix_matches_coeff_lookup(columns):
    denom = lcm(*(col.denom for col in columns))
    lo = min(col.trunc if col.is_zero else col.lead_exponent
             for col in columns)
    hi = min(col.trunc for col in columns)
    expected = [[col.coeff(Fraction(n, denom)) for col in columns]
                for n in range(int(lo * denom), int(hi * denom) + 1)]
    assert _coefficient_matrix(columns) == (expected, hi)


# the re-verification gate's failure path, judged by plain arithmetic

@pytest.mark.parametrize("spec, dropped", [("1,2,8", 1), ("3,4,10", 6)])
def test_dropped_candidates_fail_where_plain_arithmetic_does(
        capsys, spec, dropped):
    code = dispatch(["mine", "--spec", spec, "--alpha", "1", "--beta", "2",
                     "--box", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert len(report["dropped_candidates"]) == dropped
    job = report["job"]
    recipes = [SeriesRecipe(RQSpec.parse(job[side]["spec"].strip("()")),
                            Fraction(job[side]["power"])) for side in "uv"]
    re_order = (Fraction(job["order_steps"], report["lattice_denom"])
                * Fraction(job["reverify_factor"]))
    u, v = (recipe.build(re_order) for recipe in recipes)
    re_order = min(re_order, u.trunc, v.trunc)
    for candidate in report["dropped_candidates"]:
        poly = BivariatePolynomial.build(
            {(i, j): c for i, j, c in candidate["polynomial"]["terms"]})
        assert _plain_verdict(poly, u, v, re_order) == {
            "verdict": "fails_at", "fails_at": candidate["fails_at"]}
