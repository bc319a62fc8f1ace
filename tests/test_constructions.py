import dataclasses
import io
import math
import sys

import pytest

from knotcert import acceptance, cli, constructions, fox, laurent, presentations
from knotcert.constructions import (
    BadPair,
    InvalidP,
    annihilator_poly,
    checked_annihilator_poly,
    derive_gamma_consistency,
    distinctness_certificate,
    distinctness_certificates,
    double_presentation,
    fold_images,
    fold_report,
    gamma_artifacts,
    gamma_presentation,
    gamma_tab_presentation,
    order_ideal,
    standard_presentation,
    tau_report,
    tau_word,
    torus_wirtinger,
)
from knotcert.fox import (
    NotInfiniteCyclicAbelianization,
    alexander_matrix,
    alexander_polynomial,
    elementary_ideal,
    first_elementary_ideal,
)
from knotcert.laurent import LaurentPoly, cyclotomic, divide_exact, divides, laurent_gcd
from knotcert.presentations import abelianization, add_relator
from knotcert.torus import (
    TorusKnotParams,
    apply_images,
    is_in_commutator_subgroup,
    normal_form,
    product_to_amalgam,
    verify_homomorphism,
    wirtinger_standard_images,
)
from knotcert.words import Word

ONE = LaurentPoly.one()


def _count_cyclotomic(monkeypatch):
    """Spy on cyclotomic wherever a knotcert module holds it; returns the
    list of indices it is called with."""
    calls = []

    def spy(n):
        calls.append(n)
        return cyclotomic(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("knotcert") and getattr(module, "cyclotomic", None) is cyclotomic:
            monkeypatch.setattr(module, "cyclotomic", spy)
    return calls


def W(*syllables):
    return Word(syllables)


def constants_make_unit_ideal(ideal):
    """A sound but incomplete unit-ideal test on canonical generators: the
    integer gcd of the constant ones is 1, which by Bezout puts 1 in the
    ideal."""
    return math.gcd(*(g.coeff(0) for g in ideal if g.max_exp() == 0)) == 1


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
        assert annihilator_poly(1) == ONE
        assert checked_annihilator_poly(1) == ONE

    def test_p2(self):
        assert annihilator_poly(2) == LaurentPoly({0: 1, 1: -1, 2: 1})

    def test_p3_closed_form_oracle(self):
        tpow = LaurentPoly.t_power
        expected = divide_exact(
            (tpow(12) - ONE) * (tpow(1) - ONE), (tpow(4) - ONE) * (tpow(3) - ONE)
        ).canonical()
        assert annihilator_poly(3) == expected
        assert expected == LaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1})

    def test_p3_cyclotomic_factorization(self):
        assert annihilator_poly(3) == (cyclotomic(6) * cyclotomic(12)).canonical()

    def test_forms_agree(self):
        # the sum form against the closed form, divided out in the test
        tpow = LaurentPoly.t_power
        for p in range(1, 13):
            closed = divide_exact(
                (tpow(p * (p + 1)) - ONE) * (tpow(1) - ONE), (tpow(p + 1) - ONE) * (tpow(p) - ONE)
            ).canonical()
            assert annihilator_poly(p) == checked_annihilator_poly(p) == closed

    def test_bad_args(self):
        with pytest.raises(InvalidP):
            annihilator_poly(0)
        with pytest.raises(TypeError):  # there is one form, so no form argument
            annihilator_poly(2, "sum")


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
            assert order_ideals[p] == (
                (pp * pp).canonical(),
                (t_minus_1 * pp).canonical(),
            ), p

    def test_p1_unit(self):
        # the certificates read this fact off the annihilator alone
        _, ideal = order_ideal(1)
        assert ideal == (ONE,)
        assert annihilator_poly(1).is_unit()

    def test_generator_gcd_is_annihilator(self):
        for p in range(2, 7):
            _, ideal = order_ideal(p)
            assert laurent_gcd(ideal) == annihilator_poly(p)

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
            assert set(fox_ideal) == set(ideal), p

    def test_four_generator_fox_gcd(self):
        for p in range(1, 6):
            P = gamma_presentation(p)
            ab = abelianization(P)
            fox_ideal = elementary_ideal(alexander_matrix(P, ab.degree_map), 1)
            assert laurent_gcd(fox_ideal) == annihilator_poly(p)


class TestDistinctness:
    def test_pair_2_3(self):
        cert = distinctness_certificate(2, 3)
        assert cert.mode == "cyclotomic"
        assert cert.phi_index == 12
        assert cert.divides_in_k and not cert.divides_in_p
        assert cert.valid
        out = io.StringIO()
        assert cli.run(["distinct", "--p", "2", "--k", "3"], out) == 0
        assert f"phi: {cyclotomic(12)}" in out.getvalue().splitlines()
        assert str(cyclotomic(12)) == "1 - t^2 + t^4"

    def test_pair_1_2_unit_mode(self):
        cert = distinctness_certificate(1, 2)
        assert cert.mode == "unit_ideal"
        assert cert.valid
        # the p=2 ideal generators are both divisible by phi_6
        _, ideal = order_ideal(2)
        assert all(divides(cyclotomic(6), g) for g in ideal)

    def test_bad_pair(self):
        with pytest.raises(BadPair):
            distinctness_certificate(3, 2)
        with pytest.raises(BadPair):
            distinctness_certificate(2, 2)
        with pytest.raises(BadPair):
            distinctness_certificate(0, 3)

    def test_validity_needs_every_fact(self, monkeypatch):
        # On real inputs phi never divides annihilator_poly(p) for p < k and
        # annihilator_poly(1) is always a unit; faked facts show that the
        # rule still reads each one, in the sweep and for a single pair.
        # A non-unit at 1 takes the binomials of 2 as well, so that it passes
        # the identity check.
        real_binomials = constructions._annihilator_binomials
        non_unit_at_1 = {
            "annihilator_poly": lambda p: annihilator_poly(2 if p == 1 else p),
            "_annihilator_binomials": lambda p: real_binomials(2 if p == 1 else p),
        }
        for fakes, verdicts in (
            ({"cyclotomic_multiplicity": lambda n, binomials: 1}, [True, True, False]),
            ({"cyclotomic_multiplicity": lambda n, binomials: 0}, [False, False, False]),
            (non_unit_at_1, [False, False, True]),
        ):
            with monkeypatch.context() as m:
                for name, fake in fakes.items():
                    m.setattr(constructions, name, fake)
                certs = distinctness_certificates(1, 3)
                singles = [distinctness_certificate(c.p, c.k) for c in certs]
            assert [c.mode for c in certs] == ["unit_ideal", "unit_ideal", "cyclotomic"]
            assert [c.valid for c in certs] == [c.valid for c in singles] == verdicts, fakes

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
                constants_make_unit_ideal(order_ideals[1])
                and not constants_make_unit_ideal(ideal)
                and all(divides(phi, g) for g in ideal)
            )
            old_divides_in_k = divides(phi, pp) and divides(phi, (t_minus_1 * pp).canonical())
            assert certs[1, k].valid == old_unit_rule, k
            for p in range(1, k):
                assert certs[p, k].divides_in_k == old_divides_in_k, (p, k)

    def test_cyclotomic_divides_own_order_ideal(self):
        for p in range(2, 13):
            phi = cyclotomic(p * (p + 1))
            _, ideal = order_ideal(p)
            assert all(divides(phi, g) for g in ideal)


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
                for name in e._fields:
                    assert getattr(g, name) == getattr(e, name), (lo, hi, g.p, g.k, name)

    def test_bad_range(self):
        with pytest.raises(BadPair):
            distinctness_certificates(0, 3)
        with pytest.raises(BadPair):
            distinctness_certificates(5, 3)
        assert distinctness_certificates(3, 3) == []

    def test_one_fold_test_per_pair(self, monkeypatch):
        # C(m, 2) pair decisions plus one k-side decision per k, each a
        # cyclotomic multiplicity; one identity check per parameter j, that
        # is annihilator_poly(j) times (t^j - 1)(t^(j+1) - 1) against the
        # numerator (t^(j(j+1)) - 1)(t - 1), built from 1 (for j = 1 both
        # products are empty); no division at all.
        decisions, products, divisions = [], [], []
        real_multiplicity = constructions.cyclotomic_multiplicity
        real_times = constructions._times_binomials
        monkeypatch.setattr(laurent, "_divmod_dense", lambda num, den: divisions.append(den))

        def counting_multiplicity(n, binomials):
            decisions.append(n)
            return real_multiplicity(n, binomials)

        def counting_times(f, exponents):
            exponents = tuple(exponents)
            products.append((f, exponents))
            return real_times(f, exponents)

        monkeypatch.setattr(constructions, "cyclotomic_multiplicity", counting_multiplicity)
        monkeypatch.setattr(constructions, "_times_binomials", counting_times)
        for m in (1, 2, 3, 8, 19, 60):
            decisions.clear()
            products.clear()
            assert cli.run(["distinct-range", "--min", "1", "--max", str(m)], io.StringIO()) == 0
            assert len(decisions) == math.comb(m, 2) + (m - 1), m
            expected = [(ONE, (j * (j + 1), 1)) for j in range(2, m + 1)]
            expected += [(annihilator_poly(j), (j, j + 1)) for j in range(2, m + 1)]
            if m > 1:  # j = 1
                expected += [(ONE, ()), (ONE, ())]
            assert sorted(products, key=repr) == sorted(expected, key=repr), m
        assert divisions == []

    def test_residue_decides_every_pair(self, monkeypatch):
        # Every pair fact has multiplicity 0, so "does not divide", and
        # every k-side fact, one per k, has multiplicity exactly 1.
        verdicts = []
        real = constructions.cyclotomic_multiplicity

        def counting_multiplicity(n, binomials):
            verdict = real(n, binomials)
            verdicts.append((n, verdict))
            return verdict

        monkeypatch.setattr(constructions, "cyclotomic_multiplicity", counting_multiplicity)
        for m in (2, 8, 19, 60):
            verdicts.clear()
            assert cli.run(["distinct-range", "--min", "1", "--max", str(m)], io.StringIO()) == 0
            expected = [(k * (k + 1), 1) for k in range(2, m + 1)]
            expected += [(k * (k + 1), 0) for k in range(2, m + 1) for _ in range(1, k)]
            assert sorted(verdicts) == sorted(expected), m

    def test_annihilator_that_is_not_its_binomial_quotient_is_refused(self, monkeypatch, capsys):
        # A wrong annihilator_poly(2), (1 + t) times the right one, fails the
        # identity check: the library raises and the CLI prints nothing, for
        # the certificates and for gamma, and selftest's check names p = 2.
        def wrong_at_2(p):
            poly = annihilator_poly(p)
            return poly * LaurentPoly({0: 1, 1: 1}) if p == 2 else poly

        monkeypatch.setattr(constructions, "annihilator_poly", wrong_at_2)
        with pytest.raises(constructions.MismatchError, match=r"annihilator_poly\(2\)"):
            distinctness_certificates(1, 5)
        with pytest.raises(constructions.MismatchError, match=r"annihilator_poly\(2\)"):
            gamma_artifacts(2)
        for argv in (["distinct-range", "--min", "1", "--max", "5"], ["gamma", "--p", "2"]):
            out = io.StringIO()
            assert cli.run(argv, out) == 3
            assert out.getvalue() == ""
            assert "internal invariant violated" in capsys.readouterr().err
        check = acceptance.check_annihilator_forms()
        assert (check.passed, check.detail) == (False, "mismatch at p in [2]")

    def test_shared_work_is_done_once(self, monkeypatch):
        # Calls of annihilator_poly, cyclotomic, cyclotomic_multiplicity and
        # order_ideal: one annihilator per parameter, no phi (the printers
        # build it), one multiplicity per k-side fact and per pair, and no
        # order ideal, even when p = 1 is in play.
        phis = _count_cyclotomic(monkeypatch)
        calls = {}

        def counting(name):
            real = getattr(constructions, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        names = ("annihilator_poly", "cyclotomic_multiplicity", "order_ideal")
        for name in names:
            monkeypatch.setattr(constructions, name, counting(name))
        for produce, expected in (
            (lambda: distinctness_certificates(1, 12), (12, 11 + 66, 0)),
            (lambda: distinctness_certificate(3, 7), (2, 2, 0)),
            (lambda: distinctness_certificate(1, 7), (2, 2, 0)),
        ):
            calls.update(dict.fromkeys(names, 0))
            phis.clear()
            produce()
            assert all(calls[n] <= e for n, e in zip(names, expected)), calls
            assert phis == []

    def test_phi_is_built_only_where_printed(self, monkeypatch):
        # The text sweep prints no phi and builds none; the JSON sweep
        # builds one per k, hi - lo in all, and distinct one for its pair.
        phis = _count_cyclotomic(monkeypatch)
        for m in (1, 2, 8, 19, 60):
            phis.clear()
            assert cli.run(["distinct-range", "--min", "1", "--max", str(m)], io.StringIO()) == 0
            assert phis == [], m
        for lo, hi in ((1, 1), (1, 2), (1, 8), (1, 19), (5, 12), (7, 7)):
            phis.clear()
            argv = ["distinct-range", "--min", str(lo), "--max", str(hi), "--json"]
            assert cli.run(argv, io.StringIO()) == 0
            assert sorted(phis) == [k * (k + 1) for k in range(lo + 1, hi + 1)], (lo, hi)
        for p, k in ((1, 2), (2, 3), (4, 9)):
            for json_flag in ([], ["--json"]):
                phis.clear()
                argv = ["distinct", "--p", str(p), "--k", str(k), *json_flag]
                assert cli.run(argv, io.StringIO()) == 0
                assert phis == [k * (k + 1)], argv


class TestSeamQuotient:
    def test_alexander_becomes_trivial(self):
        for p in range(2, 6):
            Q = add_relator(torus_wirtinger(p), tau_word(p))
            ab = abelianization(Q)
            assert ab.is_infinite_cyclic()
            assert alexander_polynomial(Q) == ONE

    def test_tau_report_fields(self):
        for p in range(2, 7):
            report = tau_report(p)
            tk = TorusKnotParams(p, p + 1)
            image = apply_images(tau_word(p), wirtinger_standard_images(p))
            Q = add_relator(torus_wirtinger(p), tau_word(p))
            assert report.tau == tau_word(p)
            assert report.exponent_sums_zero
            assert report.image == image
            assert report.image_nf == normal_form(tk, product_to_amalgam(image))
            assert report.image_nontrivial
            assert report.in_commutator == is_in_commutator_subgroup(tk, image)
            assert report.infinite_cyclic
            assert report.alexander == alexander_polynomial(Q) == ONE
            assert report.ok

    def test_tau_report_abelianizes_once(self, monkeypatch):
        # The abelianization inside alexander_polynomial also decides
        # infinite_cyclic; the report runs no second one of its own.
        calls = []
        real = presentations.smith_normal_form
        monkeypatch.setattr(
            presentations, "smith_normal_form", lambda M: calls.append(M) or real(M)
        )
        for p in range(2, 6):
            calls.clear()
            assert tau_report(p).ok
            assert len(calls) == 1, p

    def test_tau_report_without_infinite_cyclic_quotient(self, monkeypatch):
        def refuse(P):
            raise NotInfiniteCyclicAbelianization("abelianization has rank 2 and torsion []")

        monkeypatch.setattr(constructions, "alexander_polynomial", refuse)
        report = tau_report(3)
        assert (report.infinite_cyclic, report.alexander, report.ok) == (False, None, False)

    def test_tau_report_ok_needs_every_flag(self):
        report = tau_report(3)
        trivial = dataclasses.replace(report.image_nf, central_exponent=0, syllables=())
        for change in (
            {"exponent_sums_zero": False},
            {"image_nf": trivial},
            {"in_commutator": False},
            {"infinite_cyclic": False},
            {"alexander": None},
            {"alexander": LaurentPoly({0: 1, 1: -1, 2: 1})},
        ):
            assert not dataclasses.replace(report, **change).ok, change

    def test_tau_report_invalid(self):
        for p in (-1, 0, 1):
            with pytest.raises(InvalidP):
                tau_report(p)


class TestFold:
    def test_fold_report_is_the_fold_homomorphism_check(self):
        for p in range(2, 7):
            report = fold_report(p)
            assert report == verify_homomorphism(
                gamma_presentation(p), TorusKnotParams(p, p + 1), fold_images()
            )
            assert report.surjective

    def test_fold_report_invalid(self):
        for p in (-1, 0, 1):
            with pytest.raises(InvalidP):
                fold_report(p)


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
            assert art.ok

    def test_ok_needs_both_cross_checks(self):
        art = gamma_artifacts(2)
        for flag in ("fox_tab_matches_order_ideal", "fox_gamma_gcd_equals_annihilator"):
            assert not dataclasses.replace(art, **{flag: False}).ok

    def test_gcd_verdict_matches_the_full_minor_oracle(self):
        # Oracle: the gcd of every 3x3 minor of the 4x4 Alexander matrix
        for p in range(1, 41):
            art = gamma_artifacts(p)
            ideal = elementary_ideal(alexander_matrix(art.presentation, art.degree_map), 1)
            assert art.fox_ideal_gamma == ideal, p
            assert art.fox_gamma_gcd_equals_annihilator == (laurent_gcd(ideal) == annihilator_poly(p)), p
            assert art.fox_gamma_gcd_equals_annihilator, p

    def test_only_the_json_printer_takes_three_by_three_minors(self, monkeypatch):
        # fox binds laurent_det and laurent_gcd itself, so both modules'
        # names are patched; a gcd call records the function it came from
        sizes, callers = [], []
        real_det, real_gcd = laurent.laurent_det, laurent.laurent_gcd

        def det(rows):
            sizes.append(len(rows))
            return real_det(rows)

        def gcd(polys):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_gcd(polys)

        for module in (laurent, fox):
            monkeypatch.setattr(module, "laurent_det", det)
            monkeypatch.setattr(module, "laurent_gcd", gcd)
        counts = {}
        for extra in ([], ["--json"]):
            sizes.clear()
            callers.clear()
            assert cli.run(["gamma", "--p", "80"] + extra, io.StringIO()) == 0
            counts[bool(extra)] = {n: sizes.count(n) for n in set(sizes)}
            assert set(callers) == {"_alexander_polynomial"}, extra
        # one determinant per row set: the tab E1 takes three 2x2 (its a
        # and b columns have degree 0), the Alexander polynomial six 2x2
        # after unit-pivot elimination, and fox_ideal_gamma four 3x3
        assert counts == {False: {2: 9}, True: {2: 9, 3: 4}}
        sizes.clear()
        tab = gamma_tab_presentation(80)
        first_elementary_ideal(tab, abelianization(tab).degree_map)
        assert sizes == [2, 2, 2]
