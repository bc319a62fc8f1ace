import math
import random

import pytest

from knotcert.constructions import fold_images, gamma_presentation, tau_word, torus_wirtinger
from knotcert.torus import (
    BadParams,
    TorusKnotParams,
    apply_images,
    is_in_commutator_subgroup,
    normal_form,
    product_to_amalgam,
    verify_homomorphism,
    wirtinger_standard_images,
)
from knotcert.words import ForeignGenerator, Word


def W(*syllables):
    return Word(syllables)


class TestParams:
    def test_rejects_common_factor(self):
        with pytest.raises(BadParams):
            TorusKnotParams(2, 4)

    def test_rejects_small(self):
        with pytest.raises(BadParams):
            TorusKnotParams(0, 3)
        with pytest.raises(BadParams):
            TorusKnotParams(2, 1)

    def test_p_one_is_constructible_but_has_no_word_problem(self):
        tk = TorusKnotParams(1, 2)
        with pytest.raises(BadParams):
            normal_form(tk, Word.gen("x"))


class TestNormalForm:
    def test_relator_is_trivial(self):
        nf = normal_form(TorusKnotParams(2, 3), W(("x", 2), ("y", -3)))
        assert nf.is_trivial()
        assert str(nf) == "trivial"

    def test_commutator(self):
        nf = normal_form(TorusKnotParams(2, 3), W(("x", 1), ("y", 1), ("x", -1), ("y", -1)))
        assert nf.central_exponent == -2
        assert nf.syllables == (("x", 1), ("y", 1), ("x", 1), ("y", 2))

    def test_central_absorption(self):
        nf = normal_form(TorusKnotParams(2, 3), W(("x", 2), ("y", 1)))
        assert nf.central_exponent == 1
        assert nf.syllables == (("y", 1),)

    def test_foreign_generator(self):
        with pytest.raises(ForeignGenerator):
            normal_form(TorusKnotParams(2, 3), Word.gen("q"))

    def test_exponent_ranges(self):
        rng = random.Random(41)
        for p, q in ((2, 3), (3, 4), (4, 5), (3, 5)):
            tk = TorusKnotParams(p, q)
            for _ in range(200):
                w = Word(
                    (rng.choice("xy"), rng.choice((-3, -2, -1, 1, 2, 3)))
                    for _ in range(rng.randint(0, 12))
                )
                nf = normal_form(tk, w)
                kinds = [g for g, _ in nf.syllables]
                assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))
                for g, e in nf.syllables:
                    assert 1 <= e <= (p - 1 if g == "x" else q - 1)

    def test_round_trip(self):
        rng = random.Random(42)
        tk = TorusKnotParams(3, 4)
        for _ in range(300):
            w = Word(
                (rng.choice("xy"), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(0, 15))
            )
            nf = normal_form(tk, w)
            word = Word.gen("x", tk.p * nf.central_exponent) * Word(nf.syllables)
            assert normal_form(tk, word) == nf

    def test_centrality(self):
        rng = random.Random(43)
        tk = TorusKnotParams(2, 3)
        c = W(("x", 2))
        for _ in range(200):
            w = Word(
                (rng.choice("xy"), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 10))
            )
            assert normal_form(tk, c * w) == normal_form(tk, w * c)

    def test_soundness_under_relator_insertion(self):
        rng = random.Random(44)
        for p, q in ((2, 3), (3, 4), (4, 5)):
            tk = TorusKnotParams(p, q)
            relator = W(("x", p), ("y", -q)).letters()
            for _ in range(200):
                w = Word(
                    (rng.choice("xy"), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(0, 10))
                )
                rot = rng.randrange(len(relator))
                ins = relator[rot:] + relator[:rot]
                if rng.random() < 0.5:
                    ins = [(g, -s) for g, s in reversed(ins)]
                pos = rng.randint(0, w.length())
                letters = w.letters()
                assert normal_form(tk, Word(letters[:pos] + ins + letters[pos:])) == normal_form(tk, w)

    def test_unreduced_syllables_have_the_normal_form_of_their_word(self):
        # normal_form takes a plain syllable sequence without reducing it
        # first; its merge loop must do the free reduction on the way.
        rng = random.Random(45)
        pairs = [(p, q) for p in range(2, 8) for q in range(2, 10) if math.gcd(p, q) == 1]
        for p, q in pairs:
            tk = TorusKnotParams(p, q)
            modulus = {"x": p, "y": q}
            cases = [[]]
            for _ in range(60):
                syllables = []
                for _ in range(rng.randint(1, 12)):
                    g = rng.choice("xy")
                    kind = rng.randrange(4)
                    if kind == 0:  # a run of one generator
                        syllables += [(g, rng.choice((-1, 1)) * rng.randint(1, 3))] * rng.randint(2, 4)
                    elif kind == 1:  # a cancelling pair
                        e = rng.choice((-1, 1)) * rng.randint(1, 9)
                        syllables += [(g, e), (g, -e)]
                    elif kind == 2:  # a central power, +-p or +-q times k
                        syllables.append((g, rng.choice((-1, 1)) * rng.randint(1, 3) * modulus[g]))
                    else:
                        syllables.append((g, rng.choice((-1, 1)) * rng.randint(1, 9)))
                cases.append(syllables)
            for syllables in cases:
                assert normal_form(tk, syllables) == normal_form(tk, Word(syllables)), syllables
                assert normal_form(tk, tuple(syllables)) == normal_form(tk, Word(syllables))

    def test_foreign_generator_message_for_a_word_and_a_list(self):
        tk = TorusKnotParams(2, 3)
        message = "word uses generator(s) ['a', 'q'], not x, y"
        syllables = [("x", 1), ("q", 2), ("y", 1), ("a", -1), ("q", -1)]
        for w in (Word(syllables), syllables, [("q", 1), ("q", -1), ("a", 1)]):
            with pytest.raises(ForeignGenerator) as info:
                normal_form(tk, w)
            assert str(info.value) == message

    def test_free_product_quotient_is_nonabelian(self):
        for p, q in ((2, 3), (3, 4), (4, 5), (2, 5)):
            nf = normal_form(
                TorusKnotParams(p, q), W(("x", 1), ("y", 1), ("x", -1), ("y", -1))
            )
            assert not nf.is_trivial()


class TestHomomorphisms:
    def test_fold_is_surjective_homomorphism(self):
        report = verify_homomorphism(
            gamma_presentation(3), TorusKnotParams(3, 4), fold_images()
        )
        assert report.is_homomorphism
        assert report.surjective
        # the two torsion relators need the group relation, the exchange
        # relators already die in the free group
        freely_trivial = [c.image.is_identity() for c in report.relator_checks]
        assert freely_trivial == [False, False, True, True]

    def test_missing_image_rejected(self):
        with pytest.raises(ForeignGenerator):
            verify_homomorphism(
                gamma_presentation(2), TorusKnotParams(2, 3), {"u": Word.gen("x")}
            )

    def test_wirtinger_dictionary_is_homomorphism(self):
        for p in range(2, 6):
            tk = TorusKnotParams(p, p + 1)
            report = verify_homomorphism(torus_wirtinger(p), tk, wirtinger_standard_images(p))
            assert report.is_homomorphism, p

    def test_default_dictionary_meridian_degree(self):
        for p in range(2, 6):
            images = wirtinger_standard_images(p)
            degree_map = {"x": p + 1, "y": -p}
            for k in range(1, p + 1):
                assert images[f"a{k}"].degree(degree_map) == 1

    def test_broken_dictionary_fails_loudly(self):
        images = wirtinger_standard_images(2)
        images["a2"] = Word.gen("x")  # wrong image
        report = verify_homomorphism(torus_wirtinger(2), TorusKnotParams(2, 3), images)
        assert not report.is_homomorphism

    def test_tau_image_nontrivial_and_commutator(self):
        for p in range(2, 6):
            tk = TorusKnotParams(p, p + 1)
            image = apply_images(tau_word(p), wirtinger_standard_images(p))
            assert not normal_form(tk, product_to_amalgam(image)).is_trivial()
            assert is_in_commutator_subgroup(tk, image)


class TestCommutatorSubgroup:
    def test_commutator_in(self):
        tk = TorusKnotParams(2, 3)
        assert is_in_commutator_subgroup(tk, W(("x", 1), ("y", 1), ("x", -1), ("y", -1)))

    def test_generator_not_in(self):
        tk = TorusKnotParams(2, 3)
        assert not is_in_commutator_subgroup(tk, Word.gen("x"))

    def test_foreign_generator(self):
        with pytest.raises(ForeignGenerator):
            is_in_commutator_subgroup(TorusKnotParams(2, 3), Word.gen("x") * Word.gen("z"))
