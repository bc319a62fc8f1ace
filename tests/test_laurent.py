import itertools
import math
import random

import pytest

from knotcert import laurent
from knotcert.constructions import annihilator_poly
from knotcert.intlinalg import Matrix, bareiss_det
from knotcert.laurent import (
    AllZero,
    DivisionByZero,
    InvalidIndex,
    LaurentPoly,
    NotDivisible,
    SizeTooLarge,
    _divmod_dense,
    _prime_factors,
    cyclotomic,
    cyclotomic_divisor_test,
    divide_exact,
    divides,
    laurent_det,
    laurent_gcd,
    minors,
)

ONE = LaurentPoly.one()
T = LaurentPoly.t_power(1)


def poly(pairs):
    return LaurentPoly(pairs)


def random_poly(rng, max_terms=4, exp_range=(-5, 5), coeff_range=(-6, 6)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(*coeff_range)
        terms[rng.randint(*exp_range)] = c
    return LaurentPoly(terms)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (T + ONE) * (T - ONE) == poly({2: 1, 0: -1})

    def test_additive_identity(self):
        f = poly({-3: 2, 1: 5})
        assert f + LaurentPoly.zero() == f

    def test_known_product_is_degree_six_annihilator(self):
        # (t^2 - t + 1)(t^4 - t^2 + 1), expanded by hand
        f = poly({2: 1, 1: -1, 0: 1})
        g = poly({4: 1, 2: -1, 0: 1})
        assert f * g == poly({6: 1, 5: -1, 3: 1, 1: -1, 0: 1})

    def test_no_zero_coefficients_stored(self):
        f = poly({0: 1, 1: 1}) - poly({1: 1})
        assert f.items() == ((0, 1),)

    def test_int_scaling_and_pow(self):
        assert (T * 3).items() == ((1, 3),)
        assert T ** 4 == LaurentPoly.t_power(4)
        assert (T + ONE) ** 0 == ONE


class TestCanonical:
    def test_zero(self):
        assert LaurentPoly.zero().canonical() == LaurentPoly.zero()

    def test_negative_exponents_and_sign(self):
        # -t^-1 + t^-2 normalizes to 1 - t; multiplying back by the unit
        # t^-2 recovers the input
        f = poly({-1: -1, -2: 1})
        c = f.canonical()
        assert c == poly({0: 1, 1: -1})
        assert c.shifted(-2) == f

    def test_sign_flip(self):
        # lowest coefficient must come out positive
        assert poly({0: -1, 1: 1}).canonical() == poly({0: 1, 1: -1})

    def test_already_canonical(self):
        f = poly({2: 1, 1: -1, 0: 1})
        assert f.canonical() == f

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_poly(rng)
            assert f.canonical().canonical() == f.canonical()

    def test_multiplicative(self):
        rng = random.Random(12)
        for _ in range(200):
            f, g = random_poly(rng), random_poly(rng)
            assert (f * g).canonical() == (f.canonical() * g.canonical()).canonical()


class TestDivision:
    def test_simple_quotient(self):
        assert divide_exact(poly({2: 1, 0: -1}), T - ONE) == T + ONE

    def test_product_of_cyclotomic_style_factors(self):
        # (t^6 - 1)(t - 1) / ((t^3 - 1)(t^2 - 1)), checked by long division
        num = (LaurentPoly.t_power(6) - ONE) * (T - ONE)
        den = (LaurentPoly.t_power(3) - ONE) * (poly({2: 1}) - ONE)
        assert divide_exact(num, den) == poly({2: 1, 1: -1, 0: 1})

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact(poly({2: 1, 0: 1}), T + ONE)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            divide_exact(ONE, LaurentPoly.zero())

    def test_zero_dividend(self):
        assert divide_exact(LaurentPoly.zero(), T) == LaurentPoly.zero()

    def test_round_trip_random(self):
        rng = random.Random(13)
        count = 0
        while count < 300:
            f, g = random_poly(rng), random_poly(rng)
            if g.is_zero():
                continue
            count += 1
            assert divide_exact(f * g, g) == f

    def test_divides_predicate(self):
        assert divides(T - ONE, poly({2: 1, 0: -1}))
        assert not divides(T + ONE, poly({2: 1, 0: 1}))
        assert divides(LaurentPoly.zero(), LaurentPoly.zero())
        assert not divides(LaurentPoly.zero(), ONE)

    def test_divides_agrees_with_divide_exact(self):
        rng = random.Random(17)
        cases = [
            (LaurentPoly.zero(), poly({1: 2, 0: 1})),  # f = 0
            (T, poly({3: 1, 0: 1})),  # f shorter than g
            (poly({2: 1, 0: 1}), poly({1: 2, 0: 1})),  # lead 2 does not divide 1
            (poly({2: 4, 0: -1}), poly({1: 2, 0: 1})),  # lead 2, divisible
        ]
        while len(cases) < 400:
            g = random_poly(rng)
            if g.is_zero():
                continue
            f = random_poly(rng)
            cases.append((f * g if rng.random() < 0.5 else f, g))
        for f, g in cases:
            try:
                divide_exact(f, g)
                expected = True
            except NotDivisible:
                expected = False
            assert divides(g, f) == expected


def _divmod_reference(num, den):
    # The dense long division: every step subtracts all of den, zeros too.
    rem = list(num)
    n = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - n, 0)
    for i in range(len(quot) - 1, -1, -1):
        top = rem[i + n]
        if top == 0:
            continue
        q, r = divmod(top, lead)
        if r:
            return None
        quot[i] = q
        for j, d in enumerate(den):
            rem[i + j] -= q * d
    return quot, rem[:n]


def _mul_dense(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_dense(rng, length, coeff_range=(-9, 9)):
    return [rng.randint(*coeff_range) for _ in range(length)]


class TestDivisionKernel:
    def test_matches_dense_reference(self):
        rng = random.Random(41)
        sparse = [LaurentPoly({n: 1, 0: -1}) for n in (2, 5, 12, 31, 64)]
        sparse += [cyclotomic(2**a * 3**b) for a, b in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3))]
        for e in (3, 9, 20):
            # the two Fox entries of x^e y^-(e+1), up to units
            sparse.append(LaurentPoly([((e + 1) * i, 1) for i in range(e)]))
            sparse.append(LaurentPoly([(e * i, 1) for i in range(e + 1)]))
        sparse.append(LaurentPoly({0: -1, 7: 3}))  # sparse and not monic
        dens = [g.dense_coeffs() for g in sparse]
        for _ in range(60):
            den = _random_dense(rng, rng.randint(1, 12), (1, 9))
            den = [d * rng.choice((-1, 1)) for d in den]
            dens.append(den)  # dense: no zero coefficients
        cases = []
        for den in dens:
            for _ in range(20):
                quot = _random_dense(rng, rng.randint(1, 15))
                num = _mul_dense(quot, den)
                kind = rng.randrange(3)
                if kind == 1:  # plus a remainder
                    for i, r in enumerate(_random_dense(rng, len(den) - 1)):
                        num[i] += r
                elif kind == 2:  # unrelated dividend
                    num = _random_dense(rng, len(num))
                cases.append((num, den))
            # len(num) < len(den)
            if len(den) > 1:
                cases.append((_random_dense(rng, rng.randint(1, len(den) - 1)), den))
        # a leading coefficient that stops the division at the first, a
        # middle and the last quotient step
        failed_at = {"first": 0, "middle": 0, "last": 0}
        for _ in range(30):
            den = _random_dense(rng, rng.randint(1, 10)) + [rng.choice((2, -3, 4))]
            quot = _random_dense(rng, rng.randint(3, 12))
            n = len(den) - 1
            for step, i in (("first", len(quot) - 1), ("middle", len(quot) // 2), ("last", 0)):
                num = _mul_dense(quot, den)
                num[i + n] += 1
                cases.append((num, den))
                assert _divmod_reference(num, den) is None
                failed_at[step] += 1
        assert len(cases) >= 500
        assert min(failed_at.values()) >= 30
        outcomes = {"None": 0, "exact": 0, "remainder": 0}
        for num, den in cases:
            expected = _divmod_reference(num, den)
            assert _divmod_dense(num, den) == expected, (num, den)
            if expected is None:
                outcomes["None"] += 1
            else:
                outcomes["remainder" if any(expected[1]) else "exact"] += 1
        assert min(outcomes.values()) >= 50


def _cyclotomic_by_division(n, table):
    # Reference route: t^n - 1 divided by Phi_d for every proper divisor d,
    # each built the same way.  table holds the Phi_d of one test only.
    if n not in table:
        poly = LaurentPoly({n: 1, 0: -1})
        for d in range(n - 1, 0, -1):
            if n % d == 0:
                poly = divide_exact(poly, _cyclotomic_by_division(d, table))
        table[n] = poly
    return table[n]


def _cyclotomic_by_sparse_moebius(n):
    # Second reference route: the Moebius product over sparse dict
    # polynomials, multiplying every mu = +1 binomial t^d - 1 before
    # dividing out the mu = -1 ones, so each division is exact.
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    poly = ONE
    for odd in (0, 1):
        for r in range(odd, len(primes) + 1, 2):
            for qs in itertools.combinations(primes, r):
                binomial = LaurentPoly({n // math.prod(qs): 1, 0: -1})
                poly = divide_exact(poly, binomial) if odd else poly * binomial
    return poly


class TestCyclotomic:
    def test_first_two(self):
        assert cyclotomic(1) == T - ONE
        assert cyclotomic(2) == T + ONE

    def test_twelfth(self):
        assert cyclotomic(12) == poly({4: 1, 2: -1, 0: 1})

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex):
            cyclotomic(0)
        with pytest.raises(InvalidIndex):
            cyclotomic(-3)

    def test_product_identity_up_to_200(self):
        for n in range(1, 201):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == poly({n: 1, 0: -1}), n

    def test_matches_division_route(self):
        table = {}
        for n in list(range(1, 401)) + [k * (k + 1) for k in range(1, 61)]:
            assert cyclotomic(n) == _cyclotomic_by_division(n, table), n

    def test_matches_sparse_moebius_route(self):
        for n in list(range(1, 401)) + [k * (k + 1) for k in range(1, 61)] + [57840]:
            assert cyclotomic(n) == _cyclotomic_by_sparse_moebius(n), n

    def test_prime_factors_match_a_full_scan(self):
        for n in range(1, 2001):
            expected = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
            assert _prime_factors(n) == expected, n

    def test_keeps_no_cache(self):
        # cyclotomic recomputes on every call; the module holds no memo table
        held = [
            name
            for name, value in vars(laurent).items()
            if not name.startswith("__")
            and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
        ]
        assert held == []


class TestCyclotomicDivisorTest:
    def test_invalid_index(self):
        for n in (0, -3):
            with pytest.raises(InvalidIndex, match=f"cyclotomic index must be a positive integer, got {n}"):
                cyclotomic_divisor_test(n)

    def test_matches_division_oracle_random(self):
        # Oracle: long division by cyclotomic(n).  Half of the cases are
        # planted multiples of Phi_n; exponents run negative and past n.
        rng = random.Random(29)
        prime_powers = [2, 4, 8, 64, 128, 3, 9, 27, 81, 5, 25, 125, 7, 49, 11, 121, 13, 169, 197]
        cases = [(n, LaurentPoly.zero()) for n in (1, 2, 12, 197)]
        cases += [(n, LaurentPoly({0: c})) for n in (1, 2, 6) for c in (1, -2, 5)]
        cases += [(1, poly({0: 1, 3: -1})), (1, poly({-2: 1, 5: 1})), (2, poly({-1: 1, 6: 1}))]
        outcomes = {True: 0, False: 0}
        for i in range(3000):
            n = rng.choice(prime_powers) if i % 5 == 0 else rng.randint(1, 200)
            f = random_poly(rng, max_terms=6, exp_range=(-2 * n - 3, 2 * n + 3))
            kind = rng.randrange(4)
            if kind == 1:
                f = f * cyclotomic(n)
            elif kind == 2:
                f = (f * cyclotomic(n) * 2).shifted(rng.randint(-n, n))
            elif kind == 3:  # a near miss: one coefficient off
                f = f * cyclotomic(n) + LaurentPoly.t_power(rng.randint(-n, n))
            cases.append((n, f))
        for n, f in cases:
            expected = divides(cyclotomic(n), f)
            assert cyclotomic_divisor_test(n)(f) == expected, (n, f)
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 1000

    def test_matches_division_oracle_on_annihilators(self):
        polys = {p: annihilator_poly(p) for p in range(1, 61)}
        for k in range(1, 61):
            n = k * (k + 1)
            phi, in_phi = cyclotomic(n), cyclotomic_divisor_test(n)
            for p in range(1, k + 1):
                assert in_phi(polys[p]) == divides(phi, polys[p]), (p, k)


class TestGcd:
    def test_linear_factor(self):
        assert laurent_gcd([poly({2: 1, 0: -1}), T - ONE]) == (T - ONE).canonical()

    def test_common_quadratic_factor(self):
        pp = poly({2: 1, 1: -1, 0: 1})
        assert laurent_gcd([pp * pp, (T - ONE) * pp]) == pp

    def test_content_gcd(self):
        assert laurent_gcd([poly({0: 6}), poly({1: 4})]) == poly({0: 2})

    def test_all_zero(self):
        with pytest.raises(AllZero):
            laurent_gcd([LaurentPoly.zero(), LaurentPoly.zero()])
        with pytest.raises(AllZero):
            laurent_gcd([])

    def test_gcd_divides_inputs_random(self):
        rng = random.Random(14)
        for _ in range(150):
            fs = [random_poly(rng) for _ in range(rng.randint(1, 4))]
            if all(f.is_zero() for f in fs):
                continue
            g = laurent_gcd(fs)
            for f in fs:
                divide_exact(f, g)  # must not raise


def cofactor_det(rows):
    # independent oracle: first-row cofactor expansion
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = entry * cofactor_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


class TestMinorsAndDet:
    def test_det_matches_cofactor_oracle(self):
        rng = random.Random(15)
        for _ in range(120):
            n = rng.randint(1, 4)
            rows = [
                [random_poly(rng, max_terms=2, exp_range=(-2, 2), coeff_range=(-3, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            assert laurent_det([row[:] for row in rows]) == cofactor_det(rows)

    def test_det_matches_cofactor_oracle_5x5(self):
        rng = random.Random(16)
        for _ in range(10):
            rows = [
                [random_poly(rng, max_terms=2, exp_range=(-2, 2), coeff_range=(-3, 3)) for _ in range(5)]
                for _ in range(5)
            ]
            assert laurent_det([row[:] for row in rows]) == cofactor_det(rows)

    def test_first_step_makes_no_division(self):
        # L U with L unit lower triangular and U upper triangular with a
        # nonzero diagonal has nonzero Bareiss pivots and det = prod diag(U).
        # Only steps k >= 1 divide, (n - 1 - k)^2 calls each; n = 0 returns
        # before any step.
        rng = random.Random(17)
        for n in range(7):
            for _ in range(5):
                L = [[1 if i == j else (rng.randint(-4, 4) if j < i else 0) for j in range(n)]
                     for i in range(n)]
                U = [[rng.choice((-3, -2, -1, 1, 2, 3)) if i == j else (rng.randint(-4, 4) if j > i else 0)
                      for j in range(n)] for i in range(n)]
                A = [[sum(L[i][r] * U[r][j] for r in range(n)) for j in range(n)] for i in range(n)]
                calls = []

                def spy(a, b):
                    calls.append(b)
                    assert a % b == 0
                    return a // b

                det = 1
                for i in range(n):
                    det *= U[i][i]
                assert bareiss_det(A, 1, spy) == det
                assert len(calls) == ((n - 2) * (n - 1) * (2 * n - 3) // 6 if n else 0)

    def test_two_by_two_minors_make_no_division(self, monkeypatch):
        calls = []
        real = laurent.divide_exact
        monkeypatch.setattr(laurent, "divide_exact", lambda a, b: calls.append(b) or real(a, b))
        pp = poly({2: 1, 1: -1, 0: 1})
        one_minus_t = ONE - T
        m = Matrix(
            3, 2, [pp, LaurentPoly.zero(), LaurentPoly.zero(), pp, one_minus_t, -one_minus_t]
        )
        assert minors(m, 2) == [(pp * pp).canonical(), (one_minus_t * pp).canonical()]
        assert calls == []

    def test_order_ideal_shape_matrix(self):
        pp = poly({2: 1, 1: -1, 0: 1})
        one_minus_t = ONE - T
        m = Matrix(
            3, 2, [pp, LaurentPoly.zero(), LaurentPoly.zero(), pp, one_minus_t, -one_minus_t]
        )
        got = minors(m, 2)
        assert got == [(pp * pp).canonical(), (one_minus_t * pp).canonical()]

    def test_identity(self):
        m = Matrix(2, 2, [ONE, LaurentPoly.zero(), LaurentPoly.zero(), ONE])
        assert minors(m, 2) == [ONE]

    def test_rank_deficient(self):
        m = Matrix(2, 2, [T, T, T, T])
        assert minors(m, 2) == []

    def test_size_too_large(self):
        m = Matrix(2, 2, [ONE] * 4)
        with pytest.raises(SizeTooLarge):
            minors(m, 3)

    def test_empty_minor_is_one(self):
        m = Matrix(2, 2, [T] * 4)
        assert minors(m, 0) == [ONE]

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, [ONE])
