"""Unit tests for signed characters, divisor sums and relation scanning."""

from fractions import Fraction

import pytest

from rqwork.characters import (DivisorCombination, RQSpec, SpecError,
                               TauRelation, TauTable, decompose_character,
                               tau_relation_scan)


class TestSpec:
    def test_parse_and_str(self):
        spec = RQSpec.parse("1,2,5")
        assert (spec.a, spec.b, spec.p) == (1, 2, 5)
        assert str(spec) == "(1,2,5)"

    def test_parse_rational(self):
        spec = RQSpec.parse("1,1/2,2")
        assert spec.b == Fraction(1, 2)
        assert not spec.is_integer

    def test_q_exponent(self):
        # Q = -(a-b)/2 + (a^2-b^2)/(2p)
        spec = RQSpec(1, 2, 5)
        assert spec.Q == Fraction(1, 2) + Fraction(-3, 10)
        assert RQSpec(1, 4, 17).Q == Fraction(3, 2) - Fraction(15, 34)

    def test_rejects_bad_entries(self):
        with pytest.raises(SpecError):
            RQSpec(0, 2, 5)
        with pytest.raises(SpecError):
            RQSpec(2, 2, 5)
        with pytest.raises(SpecError):
            RQSpec(1, 6, 5)


class TestChi:
    def test_values_mod_5(self):
        table = TauTable(RQSpec(1, 2, 5))
        # +1 on residues {1,4}, -1 on {2,3}, 0 on multiples of 5
        expect = {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}
        for n in range(25):
            assert table.chi(n) == expect[n % 5], n

    def test_symmetric_residue_counted_once(self):
        # a = p - a: the residue class is its own mirror
        table = TauTable(RQSpec(2, 3, 4))
        assert table.chi(2) == 1
        assert table.chi(1) == -1
        assert table.chi(3) == -1

    def test_clash_rejected(self):
        with pytest.raises(SpecError):
            TauTable(RQSpec(1, 4, 5))


class TestTau:
    def test_small_oracles(self):
        # tau(n) = sum_{d|n} d*chi(d) for (1,2,5), computed by hand
        spec = RQSpec(1, 2, 5)
        expect = {1: 1, 2: -1, 3: -2, 4: 3, 5: 1, 6: 2, 7: -6, 8: -5,
                  10: -1, 12: -6}
        table = TauTable(spec)
        for n, v in expect.items():
            assert table.tau(n) == v, n

    def test_fill_matches_direct(self):
        spec = RQSpec(1, 3, 7)
        filled = TauTable(spec).fill(300)
        lazy = TauTable(spec)
        for n in range(1, 301):
            assert filled.tau(n) == lazy.tau(n), n

    def test_modulus_multiplier_invariance(self):
        # divisors of 17n beyond those of n are all killed by chi
        spec = RQSpec(1, 4, 17)
        t = TauTable(spec).fill(17 * 200)
        for n in range(1, 201):
            assert t.tau(17 * n) == t.tau(n)


class TestScan:
    def test_finds_prime_periodicity(self):
        rels = tau_relation_scan(RQSpec(1, 2, 5), 5, 60)
        vectors = {tuple(r.coeffs) for r in rels}
        assert (1, 0, 0, 0, -1) in vectors

    def test_reverified_window(self):
        rels = tau_relation_scan(RQSpec(1, 3, 7), 7, 50)
        vectors = {tuple(r.coeffs) for r in rels}
        assert (1, 0, 0, 0, 0, 0, -1) in vectors

    def test_relation_rendering(self):
        rel = TauRelation(spec=RQSpec(1, 2, 5), J=5, n_max=60,
                          coeffs=[1, 0, 0, 0, -1], status="re-verified")
        js = rel.to_json()
        assert js["coeffs"] == [1, 0, 0, 0, -1]
        assert js["status"] == "re-verified"
        text = str(rel)
        assert "tau" in text

    def test_no_fake_relations(self):
        # columns tau(n), tau(2n), tau(3n) for (1,2,5) admit no integer
        # relation besides multiples of tau(2n) = -tau(n)... which is false
        # for this spec, so check every reported vector against fresh n
        spec = RQSpec(2, 3, 11)
        rels = tau_relation_scan(spec, 11, 80)
        table = TauTable(spec).fill(11 * 500)
        for rel in rels:
            for n in range(1, 501):
                total = sum(c * table.tau(j * n)
                            for j, c in enumerate(rel.coeffs, start=1))
                assert total == 0, (rel.coeffs, n)


class TestDecomposition:
    def test_known_eta_decomposition(self):
        # chi for (1,2,6) on divisors of 6: coefficients 1,-2,-1,2
        combo = decompose_character(RQSpec(1, 2, 6), 6)
        assert combo is not None
        assert combo.coeffs == {1: 1, 2: -2, 3: -1, 6: 2}
        assert isinstance(combo, DivisorCombination)
        assert set(combo.eta_exponents()) <= {1, 2, 3, 6}

    def test_no_decomposition(self):
        assert decompose_character(RQSpec(1, 3, 5), 5) is None
