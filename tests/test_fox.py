import io
import math
import random

import pytest

from knotcert import fox, laurent, presentations
from knotcert.cli import run
from knotcert.constructions import (
    annihilator_poly,
    double_presentation,
    gamma_presentation,
    gamma_tab_presentation,
    standard_presentation,
    _annihilator_binomials,
    tau_word,
    torus_wirtinger,
)
from knotcert.fox import (
    BrokenInvariant,
    GroupRingElement,
    NotInfiniteCyclicAbelianization,
    UnmappedGenerator,
    _fox_row,
    _laurent,
    abelianize_element,
    alexander_matrix,
    alexander_polynomial,
    alexander_polynomial_is,
    elementary_ideal,
    first_elementary_ideal,
    fox_derivative,
    fox_matrix,
)
from knotcert.intlinalg import Matrix, eliminate_unit_pivots
from knotcert.laurent import LaurentPoly, _prime_factors, divide_exact, laurent_gcd
from knotcert.fileformat import parse_presentation
from knotcert.presentations import Presentation, abelianization, add_relator
from knotcert.words import Word
from test_presentations import eliminate_generator

ONE = LaurentPoly.one()


def W(*syllables):
    return Word(syllables)


def gre(*pairs):
    out = GroupRingElement.zero()
    for word, coeff in pairs:
        out = out + GroupRingElement.from_word(word, coeff)
    return out


def constants_make_unit_ideal(ideal):
    """A sound but incomplete unit-ideal test on canonical generators: the
    integer gcd of the constant ones is 1, which by Bezout puts 1 in the
    ideal.  Kept as an oracle for properties of elementary ideals."""
    # canonical generators have min_exp 0, so the constants have max_exp 0
    return math.gcd(*(g.coeff(0) for g in ideal if g.max_exp() == 0)) == 1


class TestFoxDerivative:
    def test_power(self):
        assert fox_derivative(W(("x", 3)), "x") == gre(
            (Word.identity(), 1), (Word.gen("x"), 1), (Word.gen("x", 2), 1)
        )

    def test_inverse(self):
        assert fox_derivative(W(("x", -1)), "x") == gre((Word.gen("x", -1), -1))

    def test_other_generator(self):
        assert fox_derivative(W(("y", 5)), "x") == GroupRingElement.zero()

    def test_commutator(self):
        w = W(("x", 1), ("y", 1), ("x", -1), ("y", -1))
        expected = gre(
            (Word.identity(), 1),
            (W(("x", 1), ("y", 1), ("x", -1)), -1),
        )
        assert fox_derivative(w, "x") == expected

    def test_product_rule_random(self):
        rng = random.Random(31)
        gens = ["x", "y", "z"]
        for _ in range(300):
            u = Word(
                (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 8))
            )
            v = Word(
                (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 8))
            )
            for g in gens:
                lhs = fox_derivative(u * v, g)
                rhs = fox_derivative(u, g) + GroupRingElement.from_word(u) * fox_derivative(v, g)
                assert lhs == rhs


class TestAbelianize:
    def test_commutator_derivative(self):
        e = gre((Word.identity(), 1), (W(("x", 1), ("y", 1), ("x", -1)), -1))
        assert abelianize_element(e, {"x": 1, "y": 1}) == LaurentPoly({0: 1, 1: -1})

    def test_zero(self):
        assert abelianize_element(GroupRingElement.zero(), {}) == LaurentPoly.zero()

    def test_monomials(self):
        e = gre((Word.identity(), 1), (Word.gen("x"), 1), (Word.gen("x", 2), 1))
        assert abelianize_element(e, {"x": 1}) == LaurentPoly({0: 1, 1: 1, 2: 1})

    def test_unmapped(self):
        with pytest.raises(UnmappedGenerator):
            abelianize_element(gre((Word.gen("q"), 1)), {"x": 1})


class TestSyllableFoxMatrix:
    def test_matches_group_ring_route_on_random_words(self):
        rng = random.Random(34)
        gens = ("x", "y", "z")
        for _ in range(300):
            degree_map = {g: rng.randint(-3, 3) for g in gens}
            degree_map[rng.choice(gens)] = 0
            rels = [
                Word(
                    (rng.choice(gens), rng.choice([e for e in range(-10, 11) if e]))
                    for _ in range(rng.randint(0, 6))
                )
                for _ in range(rng.randint(1, 3))
            ]
            M = fox_matrix(gens, rels, degree_map)
            assert (M.rows, M.cols) == (len(rels), len(gens))
            for i, r in enumerate(rels):
                for j, g in enumerate(gens):
                    oracle = abelianize_element(fox_derivative(r, g), degree_map)
                    assert M.entry(i, j) == oracle

    def test_unmapped_generator(self):
        with pytest.raises(UnmappedGenerator):
            fox_matrix(("x", "y"), [W(("x", 2), ("y", 3))], {"x": 3})


class TestAlexanderMatrix:
    def test_vacuous_relator_gives_empty_matrix(self):
        P = Presentation(("x",), [W(("x", 1), ("x", -1))])
        M = alexander_matrix(P, {"x": 1})
        assert (M.rows, M.cols) == (0, 1)

    def test_standard_trefoil_row(self):
        P = Presentation(("x", "y"), [W(("x", 2), ("y", 3))])
        M = alexander_matrix(P, {"x": 3, "y": -2})
        assert M.entry(0, 0) == LaurentPoly({0: 1, 3: 1})
        assert M.entry(0, 1) == LaurentPoly({6: 1, 4: 1, 2: 1})

    def test_tab_first_relator_a_column_is_unit_times_annihilator(self):
        P = gamma_tab_presentation(2)
        ab = abelianization(P)
        M = alexander_matrix(P, ab.degree_map)
        a_col = P.generators.index("a")
        assert M.entry(0, a_col).canonical() == annihilator_poly(2)

    def test_rejects_bad_degree_map(self):
        P = Presentation(("x", "y"), [W(("x", 2), ("y", 3))])
        with pytest.raises(ValueError):
            alexander_matrix(P, {"x": 1, "y": 1})


class TestElementaryIdeal:
    def test_module_relation_matrix(self):
        pp = annihilator_poly(2)
        one_minus_t = ONE - LaurentPoly.t_power(1)
        M = Matrix(
            3, 2, [pp, LaurentPoly.zero(), LaurentPoly.zero(), pp, one_minus_t, -one_minus_t]
        )
        assert elementary_ideal(M, 0) == (
            (pp * pp).canonical(),
            (one_minus_t * pp).canonical(),
        )

    def test_k_at_column_count_is_unit_ideal(self):
        M = Matrix(1, 2, [LaurentPoly.t_power(2), LaurentPoly.zero()])
        assert elementary_ideal(M, 2) == (ONE,)
        assert elementary_ideal(M, 5) == (ONE,)

    def test_unit_ideal_from_constant_generators(self):
        def ideal(*gens):
            return tuple(LaurentPoly(g) for g in gens)

        assert constants_make_unit_ideal(ideal({0: 2}, {0: 3}, {0: 5}))
        assert constants_make_unit_ideal(ideal({0: 6}, {0: 10}, {0: 15}))
        assert not constants_make_unit_ideal(ideal({0: 4}, {0: 6}))
        assert not constants_make_unit_ideal(ideal({0: 2}, {0: 1, 1: 1}))
        assert not constants_make_unit_ideal(ideal())
        # incomplete: (2 + t) - (1 + t) = 1, yet no generator is constant
        assert not constants_make_unit_ideal(ideal({0: 1, 1: 1}, {0: 2, 1: 1}))

    def test_zero_matrix_zero_ideal(self):
        M = Matrix(2, 2, [LaurentPoly.zero()] * 4)
        assert elementary_ideal(M, 0) == ()

    def test_too_few_rows_zero_ideal(self):
        M = Matrix(1, 3, [ONE, ONE, ONE])
        assert elementary_ideal(M, 0) == ()

    def test_unit_collapse(self):
        M = Matrix(3, 2, [ONE, LaurentPoly.zero(), LaurentPoly.zero(), ONE,
                                 ONE - LaurentPoly.t_power(1), LaurentPoly.t_power(1) - ONE])
        assert elementary_ideal(M, 0) == (ONE,)

    def test_gcd_chain_on_random_matrices(self):
        # E_k is contained in E_(k+1), so gcd(E_(k+1)) divides gcd(E_k)
        rng = random.Random(32)
        for _ in range(60):
            entries = [
                LaurentPoly({rng.randint(0, 2): rng.randint(-2, 2) for _ in range(2)})
                for _ in range(9)
            ]
            M = Matrix(3, 3, entries)
            for k in range(0, 3):
                low = elementary_ideal(M, k)
                high = elementary_ideal(M, k + 1)
                if not low:
                    continue  # zero ideal: divisibility is vacuous
                g_low = laurent_gcd(low)
                g_high = laurent_gcd(high)
                divide_exact(g_low, g_high)  # must not raise


class TestAlexanderPolynomial:
    def test_unknot(self):
        assert alexander_polynomial(Presentation(("a",))) == ONE

    def test_torus_knots_match_closed_form(self):
        for p in (2, 3):
            tpow = LaurentPoly.t_power
            num = (tpow(p * (p + 1)) - ONE) * (tpow(1) - ONE)
            den = (tpow(p + 1) - ONE) * (tpow(p) - ONE)
            expected = divide_exact(num, den).canonical()
            assert alexander_polynomial(torus_wirtinger(p)) == expected

    def test_requires_infinite_cyclic(self):
        with pytest.raises(NotInfiniteCyclicAbelianization):
            alexander_polynomial(Presentation(("a", "b")))
        with pytest.raises(NotInfiniteCyclicAbelianization):
            alexander_polynomial(Presentation(("a",), [Word.gen("a", 2)]))

    def test_value_at_one_is_unit(self):
        for p in range(2, 7):
            delta = alexander_polynomial(torus_wirtinger(p))
            assert sum(c for _, c in delta.items()) in (1, -1)

    def test_invariance_under_relator_cycling_and_inversion(self):
        rng = random.Random(33)
        for p in range(2, 6):
            P = torus_wirtinger(p)
            delta = alexander_polynomial(P)
            mangled = []
            for r in P.relators:
                letters = r.letters()
                k = rng.randrange(len(letters))
                rotated = Word(letters[k:] + letters[:k])
                mangled.append(rotated.inverse() if rng.random() < 0.5 else rotated)
            Q = Presentation(P.generators, mangled)
            assert alexander_polynomial(Q) == delta

    def test_invariance_under_generator_elimination(self):
        for p in range(2, 6):
            P = torus_wirtinger(p)
            delta = alexander_polynomial(P)
            # relator  z a1 z^-1 a_p^-1  defines a_p
            defining = W(("z", 1), ("a1", 1), ("z", -1))
            Q = eliminate_generator(P, f"a{p}", defining)
            assert alexander_polynomial(Q) == delta

    def test_deleted_column_determinant_for_meridian_columns(self):
        # with the redundant relator dropped, deleting any single column of
        # a degree-one generator leaves a square matrix whose determinant
        # is the polynomial itself (up to units)
        from knotcert.fox import fox_matrix
        from knotcert.laurent import laurent_det

        for p in range(2, 6):
            P = torus_wirtinger(p)
            ab = abelianization(P)
            delta = alexander_polynomial(P)
            relators = P.relators[:-1]
            M = fox_matrix(P.generators, relators, ab.degree_map)
            grid = M.row_lists()
            for j, g in enumerate(P.generators):
                if abs(ab.degree_map[g]) != 1:
                    continue
                sub = [[row[c] for c in range(M.cols) if c != j] for row in grid]
                assert laurent_det(sub).canonical() == delta


def _random_poly(rng):
    return LaurentPoly(
        {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
    )


def _random_matrix(rng, rows, cols):
    grid = [[_random_poly(rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, rows * cols)):
        unit = LaurentPoly({rng.randint(-3, 3): rng.choice((-1, 1))})
        grid[rng.randrange(rows)][rng.randrange(cols)] = unit
    if rng.random() < 0.3:
        grid[rng.randrange(rows)] = [LaurentPoly.zero()] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = LaurentPoly.zero()
    return Matrix(rows, cols, [x for row in grid for x in row])


def _dense_eliminate_unit_pivots(M):
    # The dense elimination the library replaced, kept as the oracle: it
    # rescans the whole grid for every pivot.  Each step takes the unit of
    # least Markowitz cost (row nnz - 1) * (col nnz - 1), first in
    # row-major order on ties, clears its column with LaurentPoly row
    # operations and deletes its row and column.
    grid = M.row_lists()
    kept = list(range(M.cols))
    while True:
        col_nnz = [sum(1 for row in grid if row[j]) for j in range(len(kept))]
        best = None
        for i, row in enumerate(grid):
            row_nnz = sum(1 for x in row if x)
            for j, x in enumerate(row):
                if x.is_unit():
                    cost = (row_nnz - 1) * (col_nnz[j] - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            return Matrix(len(grid), len(kept), [x for row in grid for x in row]), kept
        _, i, j = best
        pivot_row = grid.pop(i)
        ((k, c),) = pivot_row[j].items()
        inverse = LaurentPoly({-k: c})
        for row in grid:
            if row[j]:
                factor = row[j] * inverse
                for col, y in enumerate(pivot_row):
                    if y:
                        row[col] = row[col] - factor * y
            del row[j]
        del kept[j]


def _eliminate_unit_pivots(M):
    # The library's sparse elimination on the rows of a dense matrix.
    rows = [{j: dict(x.items()) for j, x in enumerate(row) if x} for row in M.row_lists()]
    return eliminate_unit_pivots(rows, M.cols, _laurent)


def _reduced_fox_rows(P):
    # What alexander_polynomial reduces: sparse Fox rows, with no Matrix.
    column = {g: j for j, g in enumerate(P.generators)}
    degree_map = abelianization(P).degree_map
    return eliminate_unit_pivots(
        [_fox_row(r, column, degree_map) for r in P.relators], len(column), _laurent
    )


PRESENT_FORMS = (
    torus_wirtinger,
    lambda p: standard_presentation(p, p + 1),
    gamma_presentation,
    gamma_tab_presentation,
    lambda p: double_presentation(p)[0],
)


class TestUnitPivotElimination:
    def test_every_elementary_ideal_matches_full_minors(self):
        # Full minors of the unreduced matrix are the oracle.  Every minor
        # of the reduced matrix is, up to a unit, a minor of the original,
        # so its generators are a subset (unless the original collapsed to
        # the unit ideal) with the same gcd.  constants_make_unit_ideal is
        # sound but not complete, so a reduced ideal read as the unit ideal must be
        # one in the original, and the two flags are compared only when
        # the reduced ideal is principal, where the flag is exact.  For
        # [[1, 0, 0], [0, 2, 3], [0, 3, 5]] the reduced E_1 is (2, 3, 5),
        # while the original holds the unit minor 2*5 - 3*3.
        rng = random.Random(35)
        shapes = {"m<n": 0, "m=n": 0, "m>n": 0}
        for _ in range(240):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            shapes["m<n" if rows < cols else "m=n" if rows == cols else "m>n"] += 1
            M = _random_matrix(rng, rows, cols)
            R, kept = _eliminate_unit_pivots(M)
            assert R.rows - R.cols == M.rows - M.cols
            assert len(kept) == R.cols and kept == sorted(set(kept)) and set(kept) <= set(range(cols))
            assert not any(x.is_unit() for x in R.entries)
            for k in range(cols + 2):
                full = elementary_ideal(M, k)
                reduced = elementary_ideal(R, k)
                assert (full == ()) == (reduced == ())
                if full == ():
                    continue
                assert full == (ONE,) or set(reduced) <= set(full)
                assert laurent_gcd(reduced) == laurent_gcd(full)
                assert not constants_make_unit_ideal(reduced) or constants_make_unit_ideal(full)
                if len(reduced) == 1:
                    assert constants_make_unit_ideal(reduced) == constants_make_unit_ideal(full)
        assert min(shapes.values()) >= 40

    def test_empty_and_fully_reducible_matrices(self):
        empty = Matrix(0, 3, [])
        assert _eliminate_unit_pivots(empty) == (empty, [0, 1, 2])
        units = Matrix(2, 2, [ONE, -ONE, LaurentPoly.t_power(2), LaurentPoly.zero()])
        assert _eliminate_unit_pivots(units) == (Matrix(0, 0, []), [])


class TestSparseEliminationOracle:
    # The sparse elimination must give exactly the dense oracle's reduced
    # matrix and kept columns: same pivots, in the same order.
    def test_random_matrices(self):
        rng = random.Random(35)
        for _ in range(240):
            M = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert _eliminate_unit_pivots(M) == _dense_eliminate_unit_pivots(M), M

    def test_random_sparse_matrices(self):
        # Larger and sparser than the 240 above, so that pivots change the
        # costs of rows they do not touch and fill in new units.
        rng = random.Random(36)
        for _ in range(60):
            rows, cols = rng.randint(4, 14), rng.randint(4, 14)
            M = Matrix(rows, cols, [
                LaurentPoly.zero() if r < 0.55 else
                LaurentPoly({rng.randint(-3, 3): rng.choice((-1, 1))}) if r < 0.8 else
                _random_poly(rng)
                for r in (rng.random() for _ in range(rows * cols))
            ])
            assert _eliminate_unit_pivots(M) == _dense_eliminate_unit_pivots(M), M

    def test_fox_matrix_of_every_present_form(self):
        for build in PRESENT_FORMS:
            for p in range(2, 41):
                P = build(p)
                M = fox_matrix(P.generators, P.relators, abelianization(P).degree_map)
                assert _reduced_fox_rows(P) == _dense_eliminate_unit_pivots(M), p

    def test_wirtinger_and_seam_presentations(self):
        for p in range(2, 61):
            P = torus_wirtinger(p)
            for Q in (P, add_relator(P, tau_word(p))):
                M = fox_matrix(Q.generators, Q.relators, abelianization(Q).degree_map)
                assert _reduced_fox_rows(Q) == _dense_eliminate_unit_pivots(M), p

    def test_pivot_rows_are_returned_with_their_pivot(self):
        # [[t, 1 + t], [2, 3]]: the pivot t clears the second row to
        # 3 - 2 t^-1 (1 + t), and its row comes back as it was.
        rows = [{0: {1: 1}, 1: {0: 1, 1: 1}}, {0: {0: 2}, 1: {0: 3}}]
        pivots = []
        R, kept = eliminate_unit_pivots(rows, 2, _laurent, pivots)
        assert (R, kept) == (Matrix(1, 1, [LaurentPoly({-1: -2, 0: 1})]), [1])
        assert pivots == [(0, {0: {1: 1}, 1: {0: 1, 1: 1}})]


class TestAlexanderAtScale:
    def test_torus_wirtinger_matches_annihilator(self):
        for p in range(7, 21):
            assert alexander_polynomial(torus_wirtinger(p)) == annihilator_poly(p)

    def test_tall_torus_relator_matches_annihilator(self):
        # <x, y | x^e y^-(e+1)> is the (e, e+1) torus knot group; its Fox
        # entries are sparse divisors spanning about e^2 degrees.
        for e in (80, 127, 200):
            for sx, sy in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                P = Presentation(("x", "y"), [W(("x", sx * e), ("y", sy * (e + 1)))])
                assert alexander_polynomial(P) == annihilator_poly(e), (e, sx, sy)

    def test_seam_quotient_is_one(self):
        for p in range(6, 17):
            Q = add_relator(torus_wirtinger(p), tau_word(p))
            assert alexander_polynomial(Q) == ONE

    def test_minors_are_taken_of_a_small_matrix(self, monkeypatch):
        # Fails if alexander_polynomial takes determinants of the full
        # matrix, or more than one per row set: Wirtinger presentations
        # reduce to 2 x 2 and their seam quotients to 3 x 2, so each takes
        # one 1 x 1 determinant per row.
        sizes = []
        real = fox.laurent_det

        def spy(rows):
            sizes.append(len(rows))
            return real(rows)

        monkeypatch.setattr(fox, "laurent_det", spy)
        for p in range(2, 13):
            P = torus_wirtinger(p)
            sizes.clear()
            alexander_polynomial(P)
            assert sizes == [1, 1], p
            sizes.clear()
            alexander_polynomial(add_relator(P, tau_word(p)))
            assert sizes == [1, 1, 1], p

    def test_wide_presentations_stay_sparse(self, monkeypatch):
        # Structural, not wall-clock: at p = 300 the Fox rows never form a
        # dense matrix, and abelianization hands Smith normal form only the
        # 1 x 1 (Wirtinger) or 2 x 1 (seam quotient) left by the unit pivots.
        def no_dense(*args):
            raise AssertionError("alexander_polynomial built a dense Fox matrix")

        shapes = []
        real = presentations.smith_normal_form
        monkeypatch.setattr(fox, "fox_matrix", no_dense)
        monkeypatch.setattr(
            presentations, "smith_normal_form", lambda M: shapes.append((M.rows, M.cols)) or real(M)
        )
        P = torus_wirtinger(300)
        for Q in (P, add_relator(P, tau_word(300))):
            shapes.clear()
            assert alexander_polynomial(Q) == (annihilator_poly(300) if Q is P else ONE)
            assert len(shapes) == 1 and shapes[0][0] <= 2 and shapes[0][1] <= 2, shapes


def _delta_by_full_minors(P, reduce=False):
    # The gcd of every maximal minor, the route the one-determinant formula
    # replaces: of the dense oracle's unit-pivot reduced matrix when reduce
    # is set, which has the same first elementary ideal, else of the whole
    # matrix.
    M = fox_matrix(P.generators, P.relators, abelianization(P).degree_map)
    if reduce:
        M, _ = _dense_eliminate_unit_pivots(M)
    return laurent_gcd(elementary_ideal(M, 1))


def _random_z_presentation(rng):
    # 2-5 generators and n - 1 to n + 1 relators, redrawn until the
    # abelianization is Z
    while True:
        n = rng.randint(2, 5)
        gens = [f"a{i}" for i in range(n)]
        relators = [
            Word([(rng.choice(gens), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(rng.randint(2, 8))])
            for _ in range(rng.randint(n - 1, n + 1))
        ]
        P = Presentation(gens, relators)
        if abelianization(P).is_infinite_cyclic():
            return P


def _chain(g):
    lines = ["gens: " + " ".join(f"g{i}" for i in range(g))]
    lines += [f"rel: g{i} g{i + 1} g{i}^-1 g{i + 1}^-1 g{i} g{i + 1}^-1" for i in range(g - 1)]
    return "\n".join(lines) + "\n"


class TestOneDeterminantPerRowSet:
    def test_matches_full_minors_on_every_present_form(self):
        for build in PRESENT_FORMS:
            for p in range(2, 13):
                P = build(p)
                assert alexander_polynomial(P) == _delta_by_full_minors(P, reduce=True), p

    def test_matches_full_minors_on_tall_torus_relators(self):
        # <x, y | x^e y^-(e+1)> keeps both columns, of degrees e + 1 and e,
        # so Delta is the x-column entry times (t - 1)/(t^e - 1).
        for e in range(2, 131):
            for sx, sy in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                P = Presentation(("x", "y"), [W(("x", sx * e), ("y", sy * (e + 1)))])
                assert alexander_polynomial(P) == _delta_by_full_minors(P), (e, sx, sy)

    def test_matches_full_minors_on_random_presentations(self):
        rng = random.Random(41)
        seen = {"division": 0, "zero degree": 0, "gcd": 0}
        for _ in range(300):
            P = _random_z_presentation(rng)
            degree_map = abelianization(P).degree_map
            M, kept = _dense_eliminate_unit_pivots(fox_matrix(P.generators, P.relators, degree_map))
            degrees = [abs(degree_map[P.generators[j]]) for j in kept]
            seen["division"] += min(d for d in degrees if d) > 1
            seen["zero degree"] += 0 in degrees
            seen["gcd"] += M.rows > M.cols - 1
            assert alexander_polynomial(P) == _delta_by_full_minors(P), P
        assert min(seen.values()) >= 10, seen

    def test_baumslag_solitar_keeps_a_degree_zero_column(self):
        # BS(1, 2) = <x, y | x y x^-1 y^-2>: y has degree 0, the x column is
        # zero, and only the y entry t - 2 is left.
        P = Presentation(("x", "y"), [W(("x", 1), ("y", 1), ("x", -1), ("y", -2))])
        assert abelianization(P).degree_map["y"] == 0
        assert alexander_polynomial(P) == LaurentPoly({0: 2, 1: -1})
        assert alexander_polynomial(P) == _delta_by_full_minors(P)

    def test_deficiency_one_file_takes_one_determinant_and_no_gcd(self, tmp_path, monkeypatch):
        dets, forbidden = [], []
        real_det = fox.laurent_det

        def det_spy(rows):
            dets.append(len(rows))
            return real_det(rows)

        monkeypatch.setattr(fox, "laurent_det", det_spy)
        for name in ("_pp_gcd", "_divmod_dense"):
            monkeypatch.setattr(laurent, name, lambda *args, name=name: forbidden.append(name))
        files = {
            "chain12": _chain(12),
            "chain40": _chain(40),
            "tall80": "gens: x y\nrel: x^80 y^-81\n",
            "tall127": "gens: x y\nrel: x^-127 y^-128\n",
            "bs12": "gens: x y\nrel: x y x^-1 y^-2\n",
        }
        for name, text in files.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            dets.clear()
            assert run(["alexander", "--file", str(path)], io.StringIO()) == 0, name
            assert len(dets) == 1 and not forbidden, (name, dets, forbidden)

    def test_chain_polynomial(self):
        # each relator's Fox row is (2 - t, t - 2), and every generator has
        # degree 1, so Delta = (2 - t)^(g - 1)
        two_minus_t = LaurentPoly({0: 2, 1: -1})
        for g in (2, 5, 12):
            expected = ONE
            for _ in range(g - 1):
                expected = expected * two_minus_t
            P = parse_presentation(_chain(g))
            assert alexander_polynomial(P) == expected.canonical() == _delta_by_full_minors(P)

    def test_hundred_generator_chain_takes_no_bareiss_division(self, tmp_path, monkeypatch):
        # its one determinant is of a 99 x 99 lower-bidiagonal matrix, past
        # the subset-sum sizes, and a triangular matrix takes no division
        dets, divisions = [], []
        real_bareiss = laurent.bareiss_det

        def bareiss_spy(rows, one, exact_div):
            def counting_div(a, b):
                divisions.append(b)
                return exact_div(a, b)

            dets.append(len(rows))
            return real_bareiss(rows, one, counting_div)

        monkeypatch.setattr(laurent, "bareiss_det", bareiss_spy)
        path = tmp_path / "chain100.txt"
        path.write_text(_chain(100), encoding="utf-8")
        out = io.StringIO()
        assert run(["alexander", "--file", str(path)], out) == 0
        assert dets == [99] and divisions == []
        expected = ONE
        for _ in range(99):
            expected = expected * LaurentPoly({0: 2, 1: -1})
        assert out.getvalue() == " ".join(map(str, expected.canonical().dense_coeffs())) + "\n"

    def test_broken_invariant_exits_3(self, tmp_path, monkeypatch, capsys):
        # a determinant off by a factor 2 gives Delta(1) = +-2, which the
        # gcd-1 argument rules out; there is no fallback to full minors
        real_det = fox.laurent_det
        monkeypatch.setattr(fox, "laurent_det", lambda rows: real_det(rows) * 2)
        P = torus_wirtinger(3)
        with pytest.raises(BrokenInvariant):
            alexander_polynomial(P)
        path = tmp_path / "tall.txt"
        path.write_text("gens: x y\nrel: x^5 y^-6\n", encoding="utf-8")
        assert run(["alexander", "--file", str(path)], io.StringIO()) == 3
        assert "internal invariant violated" in capsys.readouterr().err

    def test_value_at_one_of_three_exits_3(self, tmp_path, monkeypatch, capsys):
        # a gcd times 1 + 2t gives Delta(1) = +-3, which the Fitting-ideal
        # argument rules out
        real_gcd = fox.laurent_gcd
        monkeypatch.setattr(fox, "laurent_gcd", lambda polys: real_gcd(polys) * LaurentPoly({0: 1, 1: 2}))
        with pytest.raises(BrokenInvariant, match="value"):
            alexander_polynomial(torus_wirtinger(3))
        path = tmp_path / "tall.txt"
        path.write_text("gens: x y\nrel: x^5 y^-6\n", encoding="utf-8")
        assert run(["alexander", "--file", str(path)], io.StringIO()) == 3
        assert "does not take the value +-1 at t = 1" in capsys.readouterr().err


def _random_first_ideal_case(rng):
    # A presentation with abelianization Z, 2-5 generators and n - 1 to
    # n + 1 relators, redrawn until it is Z; then, as drawn, a duplicate
    # or a conjugate of one relator (its Fox row is a unit multiple, so
    # every row set holding both has rank below c - 1) and an unused
    # generator, given a degree or left out of the degree map.  The
    # deficiency runs from -2 to 2.
    P = _random_z_presentation(rng)
    degree_map = dict(abelianization(P).degree_map)
    gens, relators = list(P.generators), list(P.relators)
    if rng.random() < 0.4:
        r = rng.choice(relators)
        w = Word([(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(0, 3))])
        relators.append(w * r * w.inverse())
    if rng.random() < 0.4:
        gens.append("s")
        if rng.random() < 0.5:
            degree_map["s"] = rng.randint(0, 2)
    return Presentation(gens, relators), degree_map


def _first_ideal_oracle(P, degree_map):
    return elementary_ideal(alexander_matrix(P, degree_map), 1)


class TestFirstElementaryIdeal:
    def test_matches_full_minors_on_random_presentations(self):
        rng = random.Random(43)
        seen = {"zero degree": 0, "division": 0, "zero row set": 0, "unit": 0}
        deficiencies = set()
        for _ in range(300):
            P, degree_map = _random_first_ideal_case(rng)
            degrees = [abs(degree_map.get(g, 0)) for g in P.generators]
            M = alexander_matrix(P, degree_map)
            deficiencies.add(M.cols - M.rows)
            seen["zero degree"] += 0 in degrees
            seen["division"] += min(d for d in degrees if d) > 1
            if 1 < M.cols <= M.rows + 1:
                j0 = degrees.index(min(d for d in degrees if d))
                grid = [row[:j0] + row[j0 + 1 :] for row in M.row_lists()]
                seen["zero row set"] += not all(fox._row_set_dets(grid, M.cols - 1))
            ideal = first_elementary_ideal(P, degree_map)
            seen["unit"] += ideal == (ONE,)
            assert ideal == _first_ideal_oracle(P, degree_map), P
        assert min(seen.values()) >= 10, seen
        assert deficiencies >= {0, 1, 2}, deficiencies

    def test_matches_full_minors_on_every_present_form(self):
        # the double presentation has 2p + 3 relators on 2p + 2 generators,
        # so the oracle takes (2p + 2) * C(2p + 3, 2) minors of size 2p + 1,
        # about 1.6 s at p = 6: it runs to p = 5
        for build in PRESENT_FORMS:
            for p in range(2, 6 if build is PRESENT_FORMS[-1] else 13):
                P = build(p)
                degree_map = abelianization(P).degree_map
                assert first_elementary_ideal(P, degree_map) == _first_ideal_oracle(P, degree_map), p

    def test_matches_full_minors_on_gamma_and_its_rewriting(self):
        for build in (gamma_presentation, gamma_tab_presentation):
            for p in range(1, 41):
                P = build(p)
                degree_map = abelianization(P).degree_map
                assert first_elementary_ideal(P, degree_map) == _first_ideal_oracle(P, degree_map), p

    def test_edge_cases(self):
        x, y = W(("x", 1)), W(("y", 1))
        commuting = Presentation(("x", "y"), [x * y * x.inverse() * y.inverse()])
        cases = [
            (Presentation(("x",), []), {"x": 1}, (ONE,)),  # one column
            (Presentation(("x", "y"), []), {"x": 1, "y": 0}, ()),  # c - 1 > rows
            (commuting, {"x": 0, "y": 0}, ()),  # a zero degree map: full minors
            (commuting, {"x": 1, "y": 0}, (LaurentPoly({0: 1, 1: -1}),)),  # row (0, t - 1)
            # row (1 + t, -1): the minors 1 + t and 1 collapse to (1,)
            (Presentation(("x", "y"), [W(("x", 2), ("y", -1))]), {"x": 1, "y": 2}, (ONE,)),
        ]
        for P, degree_map, expected in cases:
            assert first_elementary_ideal(P, degree_map) == _first_ideal_oracle(P, degree_map) == expected, P

    def test_rejects_a_degree_map_that_keeps_a_relator(self):
        P = Presentation(("x", "y"), [W(("x", 1), ("y", 1))])
        with pytest.raises(ValueError):
            first_elementary_ideal(P, {"x": 1, "y": 1})


def _binomial_product(binomials):
    # prod (t^a - 1)^s, the numerator's binomials multiplied first and the
    # denominator's divided out exactly
    f = ONE
    for a, s in binomials.items():
        for _ in range(s):
            f = f.times_binomial(a)
    for a, s in binomials.items():
        for _ in range(-s):
            f = divide_exact(f, LaurentPoly({a: 1, 0: -1}))
    return f


def _cyclotomic_binomials(n):
    # Phi_n = prod over d | n with n/d squarefree of (t^d - 1)^mu(n/d)
    primes = _prime_factors(n)
    out = {}
    for mask in range(1 << len(primes)):
        qs = [q for i, q in enumerate(primes) if mask >> i & 1]
        out[n // math.prod(qs)] = (-1) ** len(qs)
    return out


def _times(*binomial_maps):
    out = {}
    for binomials in binomial_maps:
        for a, s in binomials.items():
            out[a] = out.get(a, 0) + s
    return out


def _torus_binomials(p, q):
    return {p * q: 1, 1: 1, p: -1, q: -1}


def _is_cases():
    """Presentations with abelianization Z, each with candidate binomials:
    the right one, 1 and the square of the right one, the closed forms of
    some T(p, q), and cyclotomic polynomials, one at a time and in pairs."""
    rng = random.Random(47)
    presentations = [(gamma_presentation(p), _annihilator_binomials(p)) for p in range(1, 11)]
    presentations += [(torus_wirtinger(p), _torus_binomials(p, p + 1)) for p in range(2, 9)]
    presentations += [(standard_presentation(p, q), _torus_binomials(p, q)) for p, q in ((2, 5), (3, 7), (5, 4))]
    presentations += [(add_relator(torus_wirtinger(p), tau_word(p)), {}) for p in (2, 3)]
    presentations += [(_random_z_presentation(rng), {}) for _ in range(6)]
    cases = []
    for P, right in presentations:
        candidates = [right, {}, {a: 2 * s for a, s in right.items()}]
        candidates += [_torus_binomials(p, p + 1) for p in (2, 3, 4)] + [_torus_binomials(2, 5)]
        candidates += [_cyclotomic_binomials(n) for n in (1, 2, 6, 12, 20)]
        # products, whose exponents can sum to s = 0: Phi_6 Phi_12 is
        # Delta(T(3, 4)) as {12: 1, 6: 0, 4: -1, 3: -1, 2: 0, 1: 1}
        candidates += [_times(_cyclotomic_binomials(m), _cyclotomic_binomials(n)) for m, n in ((6, 12), (2, 6))]
        cases += [(P, c) for c in candidates]
    return cases


class TestAlexanderPolynomialIs:
    def test_matches_the_full_delta(self):
        answers = []
        for P, binomials in _is_cases():
            expected = alexander_polynomial(P) == _binomial_product(binomials).canonical()
            assert alexander_polynomial_is(P, abelianization(P), binomials) == expected, (P, binomials)
            answers.append(expected)
        assert answers.count(True) >= 40 and answers.count(False) >= 300, answers.count(True)

    def test_both_no_exits(self, monkeypatch):
        # a failed division answers before any gcd; a candidate that
        # divides every row-set determinant too seldom leaves cofactors
        # whose gcd is not 1
        gcds = []
        real_gcd = fox.laurent_gcd

        def gcd_spy(polys):
            gcds.append(real_gcd(polys))
            return gcds[-1]

        monkeypatch.setattr(fox, "laurent_gcd", gcd_spy)
        # Delta(G_3) = Phi_6 Phi_12 is not a multiple of T(4, 5)'s
        P = gamma_presentation(3)
        assert not alexander_polynomial_is(P, abelianization(P), _torus_binomials(4, 5))
        assert gcds == []
        # Phi_12 and 1 are proper divisors of it: the cofactors keep Phi_6,
        # or all of Delta
        for binomials, left in ((_cyclotomic_binomials(12), _binomial_product(_cyclotomic_binomials(6))),
                                ({}, annihilator_poly(3))):
            gcds.clear()
            assert not alexander_polynomial_is(P, abelianization(P), binomials)
            assert gcds == [left], binomials
        gcds.clear()
        assert alexander_polynomial_is(P, abelianization(P), _annihilator_binomials(3))
        assert gcds == [ONE]

    def test_a_faked_determinant_trips_the_value_at_one(self, monkeypatch, capsys):
        # (1 + t) u_R doubles every u_R(1), so their gcd is 2 d0, which the
        # Fitting ideal of Z rules out; the verdict takes no Delta(1) of its
        # own, so this is what catches it
        real_det = fox.laurent_det
        monkeypatch.setattr(fox, "laurent_det", lambda rows: real_det(rows) * LaurentPoly({0: 1, 1: 1}))
        for P, binomials in ((gamma_presentation(4), _annihilator_binomials(4)),
                             (torus_wirtinger(5), _torus_binomials(5, 6)),
                             (standard_presentation(3, 7), _torus_binomials(3, 7))):
            with pytest.raises(BrokenInvariant, match="at t = 1, not"):
                alexander_polynomial_is(P, abelianization(P), binomials)
            with pytest.raises(BrokenInvariant, match="at t = 1, not"):
                alexander_polynomial(P)
        assert run(["gamma", "--p", "4"], io.StringIO()) == 3
        assert "at t = 1, not" in capsys.readouterr().err

    def test_rejects_an_abelianization_other_than_z(self):
        P = Presentation(("x", "y"), [W(("x", 2))])
        with pytest.raises(NotInfiniteCyclicAbelianization):
            alexander_polynomial_is(P, abelianization(P), {})
