import random

import pytest

from knotcert import presentations
from knotcert.constructions import tau_word, torus_wirtinger
from knotcert.intlinalg import smith_normal_form
from knotcert.presentations import (
    AbelianizationResult,
    Presentation,
    abelianization,
    add_relator,
    exponent_matrix,
)
from knotcert.words import ForeignGenerator, Word, relator_equivalent


class NoDefiningRelator(ValueError):
    """eliminate_generator found no relator matching gen = defining word."""


def eliminate_generator(P: Presentation, gen: str, defining: Word) -> Presentation:
    """Tietze move: remove gen, using a relator equivalent to
    gen * defining^-1 up to cyclic permutation and inversion; gen is
    replaced by defining in the other relators.  The group is unchanged up
    to isomorphism, so invariants computed from P and the result agree.
    """
    if gen not in P.generators:
        raise NoDefiningRelator(f"{gen!r} is not a generator")
    if gen in defining.generators():
        raise NoDefiningRelator(f"defining word for {gen!r} must not mention it")
    target = Word.gen(gen) * defining.inverse()
    found = next((i for i, r in enumerate(P.relators) if relator_equivalent(r, target)), None)
    if found is None:
        raise NoDefiningRelator(f"no relator matches {gen} = {defining} up to cyclic moves")
    new_gens = tuple(g for g in P.generators if g != gen)
    new_rels = [r.substitute(gen, defining) for j, r in enumerate(P.relators) if j != found]
    return Presentation(new_gens, new_rels)


def W(*syllables):
    return Word(syllables)


def trefoil_wirtinger():
    # <z, a1, a2 | z = a1 a2 a1, z a1 z^-1 = a2, z a2 z^-1 = a1>
    return Presentation(
        ("z", "a1", "a2"),
        [
            W(("z", 1), ("a1", -1), ("a2", -1), ("a1", -1)),
            W(("z", 1), ("a1", 1), ("z", -1), ("a2", -1)),
            W(("z", 1), ("a2", 1), ("z", -1), ("a1", -1)),
        ],
    )


class TestPresentation:
    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("x", "x"))

    def test_names_outside_the_file_format_rejected(self):
        # isalnum() accepts these, but a presentation file could not name them
        for name in ("x\u00b2", "\u03b1", "x\u0663"):
            with pytest.raises(ValueError):
                Presentation((name, "y"))

    def test_foreign_relator_rejected(self):
        with pytest.raises(ForeignGenerator):
            Presentation(("x",), [Word.gen("y")])

    def test_relators_stored_cyclically_reduced(self):
        P = Presentation(("x", "y"), [W(("x", 1), ("y", 1), ("x", -1))])
        assert P.relators == (Word.gen("y"),)

    def test_trivial_relators_dropped(self):
        P = Presentation(("x",), [W(("x", 1), ("x", -1))])
        assert P.relators == ()


class TestAddRelator:
    def test_appends(self):
        P = Presentation(("x", "y"))
        Q = add_relator(P, Word.gen("x") * Word.gen("y"))
        assert Q.generators == P.generators
        assert Q.relators == (Word.gen("x") * Word.gen("y"),)

    def test_foreign_generator(self):
        with pytest.raises(ForeignGenerator):
            add_relator(Presentation(("x",)), Word.gen("y"))

    def test_identity_relator_imposes_nothing(self):
        P = Presentation(("x",), [Word.gen("x", 2)])
        assert add_relator(P, Word.identity()).relators == P.relators

    def test_killing_a_generator(self):
        P = add_relator(Presentation(("g", "h")), Word.gen("g"))
        ab = abelianization(P)
        assert ab.free_rank == 1 and not ab.torsion

    def test_free_rank_non_increasing(self):
        rng = random.Random(21)
        gens = ("a", "b", "c")
        for _ in range(100):
            rels = [
                Word(
                    (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(0, 6))
                )
                for _ in range(rng.randint(0, 3))
            ]
            P = Presentation(gens, rels)
            w = Word(
                (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 6))
            )
            assert abelianization(add_relator(P, w)).free_rank <= abelianization(P).free_rank


class TestEliminateGenerator:
    def test_trefoil_two_generator_form(self):
        P = trefoil_wirtinger()
        defining = W(("z", 1), ("a1", 1), ("z", -1))
        Q = eliminate_generator(P, "a2", defining)
        assert Q.generators == ("z", "a1")
        assert len(Q.relators) == 2
        # the group is unchanged: abelianization still Z with the same map
        ab = abelianization(Q)
        assert ab.is_infinite_cyclic()
        assert ab.degree_map == {"z": 3, "a1": 1}

    def test_simple_collapse(self):
        P = Presentation(("g", "h"), [Word.gen("g") * Word.gen("h", -1)])
        Q = eliminate_generator(P, "g", Word.gen("h"))
        assert Q.generators == ("h",)
        assert Q.relators == ()

    def test_defining_mentions_generator(self):
        P = Presentation(("g", "h"), [Word.gen("g") * Word.gen("h", -1)])
        with pytest.raises(NoDefiningRelator):
            eliminate_generator(P, "g", Word.gen("g"))

    def test_no_matching_relator(self):
        P = Presentation(("g", "h"), [Word.gen("g", 2)])
        with pytest.raises(NoDefiningRelator):
            eliminate_generator(P, "g", Word.gen("h"))

    def test_preserves_abelianization_random(self):
        rng = random.Random(22)
        gens = ("a", "b", "c")
        for _ in range(100):
            rels = [
                Word(
                    (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(0, 5))
                )
                for _ in range(rng.randint(0, 2))
            ]
            # adjoin a fresh generator with a defining relator, then remove it
            defining = Word(
                (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 5))
            )
            P = Presentation(gens, rels)
            extended = Presentation(
                gens + ("d",),
                list(rels) + [Word.gen("d") * defining.inverse()],
            )
            Q = eliminate_generator(extended, "d", defining)
            assert abelianization(Q).free_rank == abelianization(P).free_rank
            assert abelianization(Q).torsion == abelianization(P).torsion


class TestAbelianization:
    def test_exponent_matrix(self):
        P = trefoil_wirtinger()
        assert exponent_matrix(P).row_lists() == [
            [1, -2, -1],
            [0, 1, -1],
            [0, -1, 1],
        ]

    def test_trefoil_wirtinger_degree_map(self):
        ab = abelianization(trefoil_wirtinger())
        assert ab.is_infinite_cyclic()
        assert ab.degree_map == {"z": 3, "a1": 1, "a2": 1}

    def test_finite_cyclic(self):
        ab = abelianization(Presentation(("x",), [Word.gen("x", 2)]))
        assert ab.free_rank == 0
        assert ab.torsion == (2,)
        assert ab.degree_map is None

    def test_free_group(self):
        ab = abelianization(Presentation(("x", "y")))
        assert ab.free_rank == 2
        assert ab.degree_map is None

    def test_degree_map_sign_convention(self):
        # first generator with nonzero image comes out positive
        P = Presentation(("x", "y"), [Word.gen("x", 2) * Word.gen("y", 3)])
        assert abelianization(P).degree_map == {"x": 3, "y": -2}

    def test_degree_map_kills_relators_random(self):
        rng = random.Random(23)
        gens = ("a", "b", "c")
        found = 0
        for _ in range(400):
            rels = [
                Word(
                    (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(1, 6))
                )
                for _ in range(rng.randint(1, 3))
            ]
            P = Presentation(gens, rels)
            ab = abelianization(P)
            if ab.degree_map is None:
                continue
            found += 1
            for r in P.relators:
                assert r.degree(ab.degree_map) == 0
        assert found > 20


def dense_abelianization(P):
    # The dense route the library replaced, kept as the oracle: Smith normal
    # form of the whole exponent matrix, the degree map a column of V.
    n = len(P.generators)
    snf = smith_normal_form(exponent_matrix(P))
    diag = snf.diagonal()
    free_rank = n - sum(1 for d in diag if d)
    torsion = tuple(d for d in diag if d > 1)
    degree_map = None
    if free_rank == 1 and not torsion:
        free_index = next(j for j in range(n) if j >= len(diag) or diag[j] == 0)
        column = snf.V.column(free_index)
        if next(c for c in column if c) < 0:
            column = [-c for c in column]
        degree_map = dict(zip(P.generators, column))
    return AbelianizationResult(free_rank=free_rank, torsion=torsion, degree_map=degree_map)


def random_integer_presentation(rng):
    # 1-6 generators and 0-8 relators of small exponents, so that free
    # rank 0, 1 and >= 2 all occur, with and without torsion
    n = rng.randint(1, 6)
    gens = [f"g{i}" for i in range(n)]
    relators = [
        Word([(rng.choice(gens), rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for _ in range(rng.randint(1, 6))])
        for _ in range(rng.randint(0, n + 2))
    ]
    return Presentation(gens, relators)


class TestSparseAbelianizationOracle:
    # Free rank, torsion and degree map must equal the dense route's.
    def test_every_present_form(self):
        from test_fox import PRESENT_FORMS

        for build in PRESENT_FORMS:
            for p in range(2, 41):
                P = build(p)
                assert abelianization(P) == dense_abelianization(P), p

    def test_wirtinger_and_seam_presentations(self):
        for p in range(2, 61):
            P = torus_wirtinger(p)
            Q = add_relator(P, tau_word(p))
            assert abelianization(P) == dense_abelianization(P), p
            assert abelianization(Q) == dense_abelianization(Q), p

    def test_random_integer_presentations(self):
        rng = random.Random(24)
        seen = {"rank 0": 0, "rank 1": 0, "rank >= 2": 0, "torsion": 0, "Z": 0}
        for _ in range(600):
            P = random_integer_presentation(rng)
            ab = abelianization(P)
            assert ab == dense_abelianization(P), P
            seen["rank 0"] += ab.free_rank == 0
            seen["rank 1"] += ab.free_rank == 1
            seen["rank >= 2"] += ab.free_rank >= 2
            seen["torsion"] += bool(ab.torsion)
            seen["Z"] += ab.is_infinite_cyclic()
        assert min(seen.values()) >= 40, seen

    def test_pivots_leave_a_small_remainder_to_smith_normal_form(self, monkeypatch):
        shapes = []
        real = presentations.smith_normal_form
        monkeypatch.setattr(
            presentations, "smith_normal_form", lambda M: shapes.append((M.rows, M.cols)) or real(M)
        )
        trefoil = trefoil_wirtinger()
        assert abelianization(trefoil).degree_map == {"z": 3, "a1": 1, "a2": 1}
        # the first relator is solved for z and the second for a1; the
        # third relator's exponent sums are then zero against a2, the one
        # column left
        assert shapes == [(1, 1)]
        shapes.clear()
        assert abelianization(Presentation(("x", "y"), [W(("x", 2), ("y", 3))])).degree_map == {"x": 3, "y": -2}
        assert shapes == [(1, 2)]
