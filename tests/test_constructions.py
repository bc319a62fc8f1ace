import dataclasses
import io
import math

import pytest

from knotcert import cli, constructions, laurent
from knotcert.constructions import (
    BadPair,
    InvalidP,
    annihilator_poly,
    derive_gamma_consistency,
    distinctness_certificate,
    distinctness_certificates,
    double_presentation,
    gamma_artifacts,
    gamma_presentation,
    gamma_tab_presentation,
    order_ideal,
    standard_presentation,
    tau_word,
    torus_wirtinger,
)
from knotcert.fox import alexander_matrix, alexander_polynomial, elementary_ideal
from knotcert.laurent import LaurentPoly, cyclotomic, divide_exact, divides, laurent_gcd
from knotcert.presentations import abelianization, add_relator
from knotcert.words import Word

ONE = LaurentPoly.one()


def W(*syllables):
    return Word(syllables)


class TestTorusWirtinger:
    def test_p2_exact(self):
        P = torus_wirtinger(2)
        assert P.generators == ("z", "a1", "a2")
        assert P.relators == (
            W(("z", 1), ("a1", -1), ("a2", -1), ("a1", -1)),
            W(("z", 1), ("a1", 1), ("z", -1), ("a2", -1)),
            W(("z", 1), ("a2", 1), ("z", -1), ("a1", -1)),
        )

    def test_p3_shape(self):
        P = torus_wirtinger(3)
        assert len(P.generators) == 4
        assert len(P.relators) == 4
        assert P.relators[1] == W(("z", 1), ("a1", 1), ("z", -1), ("a3", -1))

    def test_invalid(self):
        with pytest.raises(InvalidP):
            torus_wirtinger(1)

    def test_degree_map(self):
        for p in range(2, 7):
            ab = abelianization(torus_wirtinger(p))
            assert ab.degree_map["z"] == p + 1
            assert all(ab.degree_map[f"a{i}"] == 1 for i in range(1, p + 1))


class TestTau:
    def test_p2_exact(self):
        assert tau_word(2) == W(("a1", 2), ("a2", 1), ("a1", -1), ("a2", -1), ("a1", -1))

    def test_p3(self):
        y = W(("a1", 1), ("a2", 1), ("a3", 1))
        assert tau_word(3) == Word.gen("a1") * y * Word.gen("a1", -1) * y.inverse()

    def test_exponent_sums_vanish(self):
        for p in range(2, 8):
            assert tau_word(p).exponent_sums() == {}

    def test_invalid(self):
        with pytest.raises(InvalidP):
            tau_word(1)


class TestStandardPresentation:
    def test_relator(self):
        P = standard_presentation(2, 3)
        assert P.generators == ("x", "y")
        assert P.relators == (W(("x", 2), ("y", 3)),)
        assert standard_presentation(3, 4).relators == (W(("x", 3), ("y", 4)),)

    def test_degree_map(self):
        for p, q in ((2, 3), (3, 4), (4, 5)):
            ab = abelianization(standard_presentation(p, q))
            assert ab.degree_map == {"x": q, "y": -p}


class TestDouble:
    def test_counts(self):
        P, word = double_presentation(2)
        assert len(P.generators) == 6
        assert len(P.relators) == 7

    def test_abelianization(self):
        for p in (2, 3, 4):
            P, _ = double_presentation(p)
            ab = abelianization(P)
            assert ab.is_infinite_cyclic()
            for i in range(1, p + 1):
                assert ab.degree_map[f"a{i}"] == 1
                assert ab.degree_map[f"b{i}"] == 1
            assert ab.degree_map["z"] == p + 1
            assert ab.degree_map["w"] == p + 1

    def test_seam_word_exponent_sums_vanish(self):
        for p in (2, 3, 4):
            _, word = double_presentation(p)
            assert word.exponent_sums() == {}

    def test_meridian_identification_present(self):
        P, _ = double_presentation(3)
        assert W(("a1", 1), ("b1", -1)) in P.relators


class TestGammaPresentation:
    def test_p2_exact(self):
        P = gamma_presentation(2)
        assert P.generators == ("u", "v", "x", "y")
        assert P.relators == (
            W(("u", 2), ("v", 3)),
            W(("x", 2), ("y", 3)),
            W(("u", 1), ("v", 1), ("y", -1), ("x", -1)),
            W(("v", 1), ("u", 1), ("x", -1), ("y", -1)),
        )

    def test_p1(self):
        P = gamma_presentation(1)
        assert P.relators[0] == W(("u", 1), ("v", 2))
        assert P.relators[1] == W(("x", 1), ("y", 2))

    def test_degree_map(self):
        for p in range(1, 9):
            ab = abelianization(gamma_presentation(p))
            assert ab.is_infinite_cyclic()
            assert ab.degree_map == {"u": p + 1, "v": -p, "x": p + 1, "y": -p}


class TestGammaTab:
    def test_routes_agree(self):
        for p in range(1, 7):
            gamma_tab_presentation(p)  # raises MismatchError on divergence

    def test_p1_relators(self):
        P = gamma_tab_presentation(1)
        # conjugation exponents k(p+1)+1 in {1} and p^2 - kp in {1, 0}:
        # the torsion relators collapse to the single letters a and b
        assert P.relators == (
            Word.gen("a"),
            Word.gen("b"),
            W(("a", 1), ("t", 1), ("a", -1), ("b", 1), ("t", -1), ("b", -1)),
        )

    def test_p2_first_relator(self):
        P = gamma_tab_presentation(2)
        assert P.relators[0] == W(
            ("t", 1), ("a", -1), ("t", 1), ("a", 1), ("t", -2), ("a", 1)
        )

    def test_degree_map(self):
        for p in (1, 2, 3):
            ab = abelianization(gamma_tab_presentation(p))
            assert ab.degree_map == {"t": 1, "a": 0, "b": 0}


class TestConsistency:
    def test_verified_with_three_substitution_steps(self):
        report = derive_gamma_consistency(2)
        assert report.verified
        substitutions = [s for s in report.steps if "substitute" in s or "rewrite" in s]
        assert len(substitutions) == 3

    def test_p_independent_trace(self):
        assert derive_gamma_consistency(2).steps == derive_gamma_consistency(3).steps


class TestAnnihilatorPoly:
    def test_p1_is_one(self):
        assert annihilator_poly(1, "sum") == ONE
        assert annihilator_poly(1, "closed") == ONE

    def test_p2(self):
        assert annihilator_poly(2) == LaurentPoly({0: 1, 1: -1, 2: 1})

    def test_p3_closed_form_oracle(self):
        tpow = LaurentPoly.t_power
        expected = divide_exact(
            (tpow(12) - ONE) * (tpow(1) - ONE), (tpow(4) - ONE) * (tpow(3) - ONE)
        ).canonical()
        assert annihilator_poly(3, "sum") == expected
        assert expected == LaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1})

    def test_p3_cyclotomic_factorization(self):
        assert annihilator_poly(3) == (cyclotomic(6) * cyclotomic(12)).canonical()

    def test_forms_agree(self):
        for p in range(1, 13):
            assert annihilator_poly(p, "sum") == annihilator_poly(p, "closed")

    def test_bad_args(self):
        with pytest.raises(InvalidP):
            annihilator_poly(0)
        with pytest.raises(ValueError):
            annihilator_poly(2, "open")


@pytest.fixture(scope="module")
def order_ideals():
    return {p: order_ideal(p)[1] for p in range(1, 41)}


class TestOrderIdeal:
    def test_p2(self, order_ideals):
        # the generators are exactly pp^2 and (t-1) pp for every p >= 2;
        # the certificates' divides_in_k relies on this shape
        t_minus_1 = LaurentPoly.t_power(1) - ONE
        for p in range(2, 41):
            pp = annihilator_poly(p)
            assert order_ideals[p].gens == (
                (pp * pp).canonical(),
                (t_minus_1 * pp).canonical(),
            ), p

    def test_p1_unit(self):
        _, ideal = order_ideal(1)
        assert ideal.gens == (ONE,)
        assert ideal.is_unit_ideal()

    def test_generator_gcd_is_annihilator(self):
        for p in range(2, 7):
            _, ideal = order_ideal(p)
            assert laurent_gcd(ideal.gens) == annihilator_poly(p)

    def test_matrix_shape(self):
        relations, _ = order_ideal(3)
        assert (relations.rows, relations.cols) == (3, 2)

    def test_fox_route_reproduces_order_ideal(self):
        # E1 of the three-generator presentation equals the hand-built
        # order ideal, generator for generator
        for p in range(1, 6):
            P = gamma_tab_presentation(p)
            ab = abelianization(P)
            fox_ideal = elementary_ideal(alexander_matrix(P, ab.degree_map), 1)
            _, ideal = order_ideal(p)
            assert set(fox_ideal.gens) == set(ideal.gens), p

    def test_four_generator_fox_gcd(self):
        for p in range(1, 6):
            P = gamma_presentation(p)
            ab = abelianization(P)
            fox_ideal = elementary_ideal(alexander_matrix(P, ab.degree_map), 1)
            assert laurent_gcd(fox_ideal.gens) == annihilator_poly(p)


class TestDistinctness:
    def test_pair_2_3(self):
        cert = distinctness_certificate(2, 3)
        assert cert.mode == "cyclotomic"
        assert cert.phi_index == 12
        assert cert.phi == cyclotomic(12)
        assert cert.divides_in_k and not cert.divides_in_p
        assert cert.valid

    def test_pair_1_2_unit_mode(self):
        cert = distinctness_certificate(1, 2)
        assert cert.mode == "unit_ideal"
        assert cert.valid
        # the p=2 ideal generators are both divisible by phi_6
        _, ideal = order_ideal(2)
        assert all(divides(cyclotomic(6), g) for g in ideal.gens)

    def test_bad_pair(self):
        with pytest.raises(BadPair):
            distinctness_certificate(3, 2)
        with pytest.raises(BadPair):
            distinctness_certificate(2, 2)
        with pytest.raises(BadPair):
            distinctness_certificate(0, 3)

    def test_matches_order_ideal_rule(self, order_ideals):
        # Oracle for the one-division rule: the p = 1 certificate used to
        # rebuild the order ideal of k and check phi against each generator,
        # and divides_in_k used to also divide (t-1) pp_k.
        t_minus_1 = LaurentPoly.t_power(1) - ONE
        certs = {(c.p, c.k): c for c in distinctness_certificates(1, 40)}
        for k in range(2, 41):
            phi, pp = cyclotomic(k * (k + 1)), annihilator_poly(k)
            ideal = order_ideals[k]
            old_unit_rule = (
                order_ideals[1].is_unit_ideal()
                and not ideal.is_unit_ideal()
                and all(divides(phi, g) for g in ideal.gens)
            )
            old_divides_in_k = divides(phi, pp) and divides(phi, (t_minus_1 * pp).canonical())
            assert certs[1, k].valid == old_unit_rule, k
            for p in range(1, k):
                assert certs[p, k].divides_in_k == old_divides_in_k, (p, k)

    def test_cyclotomic_divides_own_order_ideal(self):
        for p in range(2, 13):
            phi = cyclotomic(p * (p + 1))
            _, ideal = order_ideal(p)
            assert all(divides(phi, g) for g in ideal.gens)


class TestDistinctnessSweep:
    @pytest.fixture(scope="class")
    def singles(self):
        return {
            (p, k): distinctness_certificate(p, k)
            for p in range(1, 25)
            for k in range(p + 1, 26)
        }

    def test_sweep_equals_single_pairs(self, singles):
        ranges = [(lo, hi) for lo in range(1, 15) for hi in range(lo, 15)]
        for lo, hi in ranges + [(1, 25), (7, 25)]:
            expected = [singles[p, k] for p in range(lo, hi + 1) for k in range(p + 1, hi + 1)]
            got = distinctness_certificates(lo, hi)
            assert len(got) == len(expected) == math.comb(hi - lo + 1, 2)
            for g, e in zip(got, expected):
                for field in dataclasses.fields(e):
                    assert getattr(g, field.name) == getattr(e, field.name), (lo, hi, g.p, g.k, field.name)

    def test_bad_range(self):
        with pytest.raises(BadPair):
            distinctness_certificates(0, 3)
        with pytest.raises(BadPair):
            distinctness_certificates(5, 3)
        assert distinctness_certificates(3, 3) == []

    def test_one_fold_test_per_pair(self, monkeypatch):
        # One fold kernel per k; C(m, 2) pair decisions plus one k-side
        # decision per k, and the p = 1 pairs add none.  No division runs
        # at all, neither long nor packed.
        builds, decisions, divisions = [], [], []
        real = constructions.cyclotomic_divisor_test
        monkeypatch.setattr(laurent, "_divmod_dense", lambda num, den: divisions.append(den))
        monkeypatch.setattr(laurent, "_exact_quotient", lambda num, den: divisions.append(den))

        def counting_test(n):
            builds.append(n)
            in_phi = real(n)
            return lambda f: decisions.append(n) or in_phi(f)

        monkeypatch.setattr(constructions, "cyclotomic_divisor_test", counting_test)
        for m in (1, 2, 3, 8, 19):
            builds.clear()
            decisions.clear()
            assert cli.run(["distinct-range", "--min", "1", "--max", str(m)], io.StringIO()) == 0
            assert builds == [k * (k + 1) for k in range(2, m + 1)], m
            assert len(decisions) == math.comb(m, 2) + (m - 1), m
        assert divisions == []


class TestSeamQuotient:
    def test_alexander_becomes_trivial(self):
        for p in range(2, 6):
            Q = add_relator(torus_wirtinger(p), tau_word(p))
            ab = abelianization(Q)
            assert ab.is_infinite_cyclic()
            assert alexander_polynomial(Q) == ONE


class TestArtifacts:
    def test_bundle(self):
        art = gamma_artifacts(2)
        assert art.presentation == gamma_presentation(2)
        assert art.tab_presentation == gamma_tab_presentation(2)
        assert art.p_poly == annihilator_poly(2)
        assert art.order_ideal == order_ideal(2)[1]
        assert art.order_ideal == elementary_ideal(art.module_relations, 0)

    def test_fox_cross_checks(self):
        for p in range(1, 6):
            art = gamma_artifacts(p)
            assert art.degree_map == abelianization(art.presentation).degree_map
            tab_degrees = abelianization(art.tab_presentation).degree_map
            assert art.fox_ideal_tab == elementary_ideal(
                alexander_matrix(art.tab_presentation, tab_degrees), 1
            )
            assert art.fox_ideal_gamma == elementary_ideal(
                alexander_matrix(art.presentation, art.degree_map), 1
            )
            assert art.fox_tab_matches_order_ideal
            assert art.fox_gamma_gcd_equals_annihilator
