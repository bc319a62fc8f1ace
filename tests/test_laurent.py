import io
import itertools
import math
import random

import pytest

from knotcert import fox, laurent
from knotcert.cli import run
from knotcert.constructions import annihilator_poly
from knotcert.intlinalg import Matrix, bareiss_det
from knotcert.laurent import (
    DivisionByZero,
    InvalidIndex,
    LaurentPoly,
    NotDivisible,
    SizeTooLarge,
    _divmod_dense,
    _long_quotient,
    _prime_factors,
    _subset_det,
    cyclotomic,
    cyclotomic_multiplicity,
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
        assert T * T * T * T == LaurentPoly.t_power(4)
        assert (T + ONE) * (T + ONE) == poly({0: 1, 1: 2, 2: 1})


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
            sparse.extend(_fox_entries(e))
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


def _quotient_reference(num, den):
    # num/den by the dense reference division, or None
    qr = _divmod_reference(num.dense_coeffs(), den.dense_coeffs())
    if qr is None or any(qr[1]):
        return None
    return LaurentPoly({i + num.min_exp() - den.min_exp(): c for i, c in enumerate(qr[0])})


def _fox_entries(e):
    # the two Fox entries of x^e y^-(e+1), up to units
    return (
        LaurentPoly([((e + 1) * i, 1) for i in range(e)]),
        LaurentPoly([(e * i, 1) for i in range(e + 1)]),
    )


def _torus_delta(e):
    # Alexander polynomial of T(e, e+1) in closed form
    return LaurentPoly([(e * e - k * e, 1) for k in range(e + 1)]) - LaurentPoly(
        [(k * (e + 1) + 1, 1) for k in range(e)]
    )


def _record_widths(monkeypatch):
    widths = []
    real = laurent._pack

    def recording_pack(coeffs, lo, n, w, fmt):
        widths.append(w)
        return real(coeffs, lo, n, w, fmt)

    monkeypatch.setattr(laurent, "_pack", recording_pack)
    return widths


class TestBinomialQuotient:
    """The divisor +-t^a*(1 - t^d) takes _binomial_quotient; _long_quotient
    is the oracle."""

    def _spy(self, monkeypatch):
        calls = []
        real = laurent._binomial_quotient

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(laurent, "_binomial_quotient", spy)
        return calls

    def test_matches_long_division_on_random_dividends(self, monkeypatch):
        calls = self._spy(monkeypatch)
        rng = random.Random(61)
        outcomes = {"exact": 0, "not": 0}
        for _ in range(600):
            a, d, sign = rng.randint(-6, 6), rng.randint(1, 12), rng.choice((1, -1))
            den = poly({a: -sign, a + d: sign})
            quot = random_poly(rng, max_terms=8, exp_range=(-20, 20), coeff_range=(-9, 9))
            num = quot * den
            if rng.random() < 0.5:
                num = num + random_poly(rng, max_terms=2, exp_range=(-25, 25))
            if num.is_zero():
                continue
            calls.clear()
            expected = _long_quotient(num, den)
            assert laurent._quotient(num, den) == expected, (num, den)
            assert divides(den, num) == (expected is not None)
            if expected is None:
                with pytest.raises(NotDivisible):
                    divide_exact(num, den)
            else:
                assert divide_exact(num, den) == expected
            assert len(calls) == 3, (num, den)
            outcomes["not" if expected is None else "exact"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_wide_sparse_dividend(self):
        # the Alexander polynomial of T(e, e + 1) times t - 1, over t^e - 1
        for e in (2, 80, 127, 400):
            fox_entry = _fox_entries(e)[0]
            num = fox_entry.shifted(1) - fox_entry
            assert divide_exact(num, poly({e: 1, 0: -1})).canonical() == _torus_delta(e)
            assert not divides(poly({e + 2: 1, 0: -1}), num)

    def test_wide_sparse_classes_mixing_one_step_and_long_runs(self):
        # Each residue class of num steps by exactly d between some of its
        # exponents (a one-step run of the quotient, one assignment) and by
        # several d between others (a longer run, one dict.fromkeys).
        rng = random.Random(63)
        outcomes = {"exact": 0, "not": 0}
        gaps = {"one": 0, "several": 0}
        for _ in range(300):
            a, d, sign = rng.randint(-30, 30), rng.randint(1, 40), rng.choice((1, -1))
            den = poly({a: -sign, a + d: sign})
            terms = {}
            for r in rng.sample(range(d), rng.randint(1, min(d, 4))):
                x = r + d * rng.randint(-50, 50)
                exps = []
                for _ in range(rng.randint(1, 12)):
                    exps.append(x)
                    step = 1 if rng.random() < 0.5 else rng.randint(2, 60)
                    gaps["one" if step == 1 else "several"] += 1
                    x += step * d
                exps.append(x)
                cs = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in exps[:-1]]
                cs.append(-sum(cs) + (rng.randint(-1, 1) if rng.random() < 0.3 else 0))
                terms.update((e, c) for e, c in zip(exps, cs) if c)
            num = poly(terms)
            if num.is_zero():
                continue
            expected = _long_quotient(num, den)
            assert laurent._quotient(num, den) == expected, (num, den)
            outcomes["not" if expected is None else "exact"] += 1
        assert min(outcomes.values()) >= 30, outcomes
        assert min(gaps.values()) >= 1000, gaps

    def test_other_two_term_divisors_fall_through(self, monkeypatch):
        calls = self._spy(monkeypatch)
        rng = random.Random(62)
        dens = [poly({0: 1, 3: 1}), poly({0: 2, 1: -2}), poly({0: 1, 2: -2}), poly({-2: 3, 4: 1}), poly({1: -1, 5: -1})]
        for den in dens:
            for _ in range(40):
                num = random_poly(rng, max_terms=6, exp_range=(-10, 10)) * den
                num = num + (random_poly(rng, max_terms=1) if rng.random() < 0.5 else LaurentPoly.zero())
                if num.is_zero():
                    continue
                assert laurent._quotient(num, den) == _long_quotient(num, den), (num, den)
        assert calls == []


class TestPackedQuotient:
    """Coefficient bounds from one byte to past eight, three densities,
    the Fox entries of x^e y^-(e+1), and constant operands, through the
    quotient every caller takes; the class is named for the packed route
    these shapes were built to exercise."""

    def _random(self, rng, length, bound, density):
        terms = {i: rng.choice((-1, 1)) * rng.randint(1, bound) for i in range(length) if rng.random() < density}
        terms[0] = terms.get(0, 1)
        terms[length - 1] = terms.get(length - 1, -1)
        return LaurentPoly(terms).shifted(rng.randint(-40, 40))

    def test_matches_dense_reference(self):
        rng = random.Random(43)
        cases = []
        for bound in (9, 10**6, 2**40, 10**30):
            for density in (1.0, 0.3, 0.05):
                for _ in range(25):
                    den = self._random(rng, rng.randint(1, 40), bound, density)
                    quot = self._random(rng, rng.randint(1, 40), bound, density)
                    kind = rng.randrange(3)
                    if kind == 0:
                        num = quot * den
                    elif kind == 1:  # plus a perturbation
                        num = quot * den + self._random(rng, rng.randint(1, 30), bound, density)
                    else:  # unrelated dividend
                        num = self._random(rng, rng.randint(1, 80), bound, density)
                    if num:
                        cases.append((num, den))
        for e in (2, 3, 9, 20, 80, 127):
            a, b = _fox_entries(e)
            delta = _torus_delta(e)
            cases += [(a, delta), (b, delta), (b, a), (a, b), (-b.shifted(-e), delta.shifted(3)), (a + ONE, delta)]
            if e <= 20:
                cases += [(b * delta, a), (b * delta, b.shifted(5))]
        for c, d in ((6, 3), (6, -4), (10**30, 10**15), (-7, 1)):  # constant operands
            cases += [(poly({0: c}), poly({0: d})), (poly({-3: c, 5: c}), poly({2: d})), (poly({2: d}), poly({-3: c, 5: c}))]
        # a quotient with coefficients up to 200 over a product with +-1 ones,
        # num(256) divisible by den(256) with den not dividing num, and a
        # divisor coefficient past eight bytes
        ramp = list(range(1, 201)) + list(range(199, 0, -1))
        cases.append((LaurentPoly({i: (-1) ** i * c for i, c in enumerate(ramp)}) * (ONE + T), ONE + T))
        cases.append((poly({0: 57, 1: -100, 2: 100}), ONE + T))
        cases.append((poly({0: -5, 2: 7, 3: 1}) * poly({0: 3, 1: 2**70, 4: -1}), poly({0: 3, 1: 2**70, 4: -1})))
        outcomes = {"exact": 0, "not": 0}
        for num, den in cases:
            expected = _quotient_reference(num, den)
            assert laurent._quotient(num, den) == expected, (num, den)
            assert divides(den, num) == (expected is not None)
            if expected is None:
                with pytest.raises(NotDivisible):
                    divide_exact(num, den)
            else:
                assert divide_exact(num, den) == expected
            outcomes["not" if expected is None else "exact"] += 1
        assert min(outcomes.values()) >= 100
        for g in (T, cyclotomic(57).shifted(-9)):  # zero operands never reach a route
            assert divide_exact(LaurentPoly.zero(), g) == LaurentPoly.zero()
            assert divides(g, LaurentPoly.zero()) and not divides(LaurentPoly.zero(), g)


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


def binomial_quotient(pairs):
    """({a: s}, f) for f = prod (t^a - 1)^s over the pairs (a, s), repeats
    summed, or None when f is no polynomial."""
    binomials = {}
    for a, s in pairs:
        binomials[a] = binomials.get(a, 0) + s
    num = den = ONE
    for a, s in binomials.items():
        for _ in range(abs(s)):
            if s > 0:
                num = num * (LaurentPoly.t_power(a) - ONE)
            else:
                den = den * (LaurentPoly.t_power(a) - ONE)
    return (binomials, divide_exact(num, den)) if divides(den, num) else None


def multiplicity_by_division(n, f):
    phi, count = cyclotomic(n), 0
    while divides(phi, f):
        f, count = divide_exact(f, phi), count + 1
    return count


def _root_of_unity_mod_prime(n):
    """(ell, zeta): the least prime ell = 1 mod n and an element of
    multiplicative order exactly n modulo ell, found by trial division and
    by checking zeta^(n/q) != 1 for every prime q dividing n."""
    def is_prime(m):
        return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))

    ell = n + 1
    while not is_prime(ell):
        ell += n
    primes = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    for g in range(2, ell):
        zeta = pow(g, (ell - 1) // n, ell)
        if all(pow(zeta, n // q, ell) != 1 for q in primes):
            return ell, zeta
    raise AssertionError(f"no element of order {n} modulo {ell}")


class TestCyclotomicMultiplicity:
    def test_invalid_index(self):
        for n in (0, -3):
            with pytest.raises(InvalidIndex, match=f"cyclotomic index must be a positive integer, got {n}"):
                cyclotomic_multiplicity(n, {1: 1})

    def test_matches_division_oracle_random(self):
        # Oracle: long division by cyclotomic(n), repeated for the exact
        # multiplicity.  Exponents are multiples of one base, so they share
        # divisors; most denominator exponents divide a numerator one, and
        # n runs over 1, 2, every divisor met and one more.
        rng = random.Random(31)
        kept = with_denominator = 0
        for _ in range(400):
            base = rng.randint(1, 6)
            pairs = [(base * rng.randint(1, 8), rng.choice((1, 1, 2))) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 3)):
                a = rng.choice(pairs)[0]
                pairs.append((rng.choice([d for d in range(1, a + 1) if a % d == 0]), -1))
            if rng.randrange(4) == 0:
                pairs.append((base * rng.randint(1, 8), -1))
            found = binomial_quotient(pairs)
            if found is None:
                continue
            binomials, f = found
            kept += 1
            with_denominator += min(binomials.values()) < 0
            top = max(binomials)
            ns = {1, 2, rng.randint(1, top + 3)} | {d for a in binomials for d in range(1, a + 1) if a % d == 0}
            for n in ns:
                got = cyclotomic_multiplicity(n, binomials)
                assert got == multiplicity_by_division(n, f), (n, pairs)
                assert (got >= 1) == divides(cyclotomic(n), f), (n, pairs)
        assert kept >= 200 and with_denominator >= 100

    def test_matches_division_oracle_on_annihilators(self):
        quotients = {}
        for p in range(1, 81):
            quotients[p] = binomial_quotient([(p * (p + 1), 1), (1, 1), (p, -1), (p + 1, -1)])
            assert quotients[p][1].canonical() == annihilator_poly(p), p
        divisions = 0
        for k in range(1, 81):
            n = k * (k + 1)
            ell, zeta = _root_of_unity_mod_prime(n)
            for p in range(1, k + 1):
                binomials, f = quotients[p]
                # Phi_n(zeta) = 0 mod ell, so Phi_n | f forces f(zeta) = 0 mod
                # ell: a nonzero residue proves Phi_n does not divide f, and a
                # zero one is confirmed by long division.
                if sum(c * pow(zeta, e, ell) for e, c in f.items()) % ell:
                    divides_f = False
                else:
                    divides_f, divisions = divides(cyclotomic(n), f), divisions + 1
                assert (cyclotomic_multiplicity(n, binomials) >= 1) == divides_f, (p, k)
        # Phi_(k(k+1)) divides annihilator_poly(k) for every k >= 2 and no
        # other annihilator here, so 79 residues vanish
        assert divisions == 79


class TestGcd:
    def test_linear_factor(self):
        assert laurent_gcd([poly({2: 1, 0: -1}), T - ONE]) == (T - ONE).canonical()

    def test_common_quadratic_factor(self):
        pp = poly({2: 1, 1: -1, 0: 1})
        assert laurent_gcd([pp * pp, (T - ONE) * pp]) == pp

    def test_content_gcd(self):
        assert laurent_gcd([poly({0: 6}), poly({1: 4})]) == poly({0: 2})

    def test_all_zero(self):
        # a family with no nonzero member generates the zero ideal
        assert laurent_gcd([LaurentPoly.zero(), LaurentPoly.zero()]) == LaurentPoly.zero()
        assert laurent_gcd([]) == LaurentPoly.zero()

    def test_torus_knot_fox_entries_match_closed_form(self):
        for e in range(2, 201):
            a, b = _fox_entries(e)
            assert laurent_gcd([a.shifted(-e), -b]) == _torus_delta(e), e

    def test_matches_prs_oracle_random(self):
        rng = random.Random(53)
        families = []
        for _ in range(150):
            common = random_poly(rng, 6, (-8, 8))
            fs = [common * random_poly(rng, 5, (-9, 9)) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.4:  # one member divides another
                fs.append(fs[0] * random_poly(rng, 3, (0, 30)))
            families.append(fs)
        for _ in range(40):  # sparse and wide: gcd(t^i - 1, t^j - 1) = t^gcd(i, j) - 1, times units
            i, j = rng.randint(1, 300), rng.randint(1, 300)
            families.append([poly({i: 1, 0: -1}).shifted(rng.randint(-9, 9)), poly({j: -3, 0: 3}), poly({i * j: 1, 0: -1})])
        nontrivial = 0
        for fs in families:
            if all(f.is_zero() for f in fs):
                continue
            expected = _gcd_reference(fs)
            assert laurent_gcd(fs) == expected, fs
            nontrivial += not expected.is_unit()
        assert nontrivial >= 100

    def test_torus_knot_gcd_takes_two_long_divisions(self, monkeypatch):
        # a two-step pseudo-remainder leaves Delta (times a unit), which then
        # divides the other Fox entry in e steps with a zero remainder
        steps, remainders = [], []
        real = laurent._divmod_dense

        def spy(num, den):
            qr = real(num, den)
            steps.append(len(num) - len(den) + 1)
            remainders.append(any(qr[1]))
            return qr

        monkeypatch.setattr(laurent, "_divmod_dense", spy)
        for e in (2, 3, 10, 127):
            steps.clear()
            remainders.clear()
            assert laurent_gcd(_fox_entries(e)) == _torus_delta(e)
            assert steps == [2, e], e
            assert remainders == [True, False], e

    def test_gcd_divides_inputs_random(self):
        rng = random.Random(14)
        for _ in range(150):
            fs = [random_poly(rng) for _ in range(rng.randint(1, 4))]
            if all(f.is_zero() for f in fs):
                continue
            g = laurent_gcd(fs)
            for f in fs:
                divide_exact(f, g)  # must not raise


def _gcd_reference(polys):
    # The primitive polynomial-remainder sequence alone, over the dense
    # reference division, with no divisibility shortcut
    def primitive(f):
        c = f.content()
        return LaurentPoly({e: v // c for e, v in f.items()}).canonical() if c else f

    def span(f):
        return f.max_exp() - f.min_exp()

    nonzero = [f for f in polys if f]
    g = primitive(nonzero[0])
    for f in nonzero[1:]:
        a, b = g, primitive(f)
        while b:
            if span(a) < span(b):
                a, b = b, a
            elif span(b) == 0:
                a, b = ONE, LaurentPoly.zero()
            else:
                scale = b.coeff(b.max_exp()) ** (span(a) - span(b) + 1)
                _, rem = _divmod_reference((a * scale).dense_coeffs(), b.dense_coeffs())
                a, b = b, primitive(LaurentPoly(enumerate(rem)))
        g = a.canonical()
    return (g * math.gcd(*(f.content() for f in nonzero))).canonical()


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


def _bareiss_oracle(rows):
    # Bareiss over the Laurent ring: LaurentPoly products and exact
    # divisions, the route the packed determinant replaced
    return bareiss_det(rows, ONE, divide_exact)


class TestPackedDet:
    def _random_matrix(self, rng, n, bound):
        rows = [
            [random_poly(rng, max_terms=rng.choice((2, 4, 12)), exp_range=(-9, 9), coeff_range=(-bound, bound))
             for _ in range(n)]
            for _ in range(n)
        ]
        kind = rng.randrange(4)
        if kind == 1 and n:  # a zero row
            rows[rng.randrange(n)] = [LaurentPoly.zero()] * n
        elif kind == 2 and n >= 2:  # rank-deficient: one row a multiple of another
            i, j = rng.sample(range(n), 2)
            scale = random_poly(rng, 3, (-4, 4)) or ONE + T
            rows[i] = [f * scale for f in rows[j]]
        elif kind == 3:  # sparse: about half of the entries zero
            rows = [[f if rng.random() < 0.5 else LaurentPoly.zero() for f in row] for row in rows]
        return rows

    def test_matches_bareiss_oracle(self, monkeypatch):
        widths = _record_widths(monkeypatch)
        rng = random.Random(61)
        outcomes = {"zero": 0, "nonzero": 0}
        for bound in (1, 9, 10**4, 10**9, 10**30):
            for _ in range(80):
                rows = self._random_matrix(rng, rng.randint(0, 5), bound)
                expected = _bareiss_oracle(rows)
                assert laurent_det(rows) == expected, rows
                outcomes["nonzero" if expected else "zero"] += 1
        assert min(outcomes.values()) >= 50
        assert {1, 2, 4, 8} <= set(widths) and max(widths) > 8

    def test_reads_back_a_coefficient_at_the_bound(self, monkeypatch):
        # Monomial entries one per row and column make the bound tight:
        # the determinant has a coefficient of absolute value xi/2 - 1 at
        # the width laurent_det picks
        zero = LaurentPoly.zero()
        cases = [
            ([[poly({-3: 127}), zero], [zero, poly({5: -1})]], 1),
            ([[zero, poly({1: 7}), zero], [poly({-2: -31}), zero, zero], [zero, zero, poly({4: 151})]], 2),
            ([[ONE, zero], [zero, poly({-7: -(2**31 - 1)})]], 4),
            ([[poly({0: 49}), zero, zero, zero], [zero, zero, poly({2: -9271}), zero],
              [zero, poly({-1: 337}), zero, zero], [zero, zero, zero, poly({0: 92737 * 649657})]], 8),
            ([[poly({0: 2**71 - 1}), zero], [zero, poly({-1: 1})]], 9),
        ]
        for rows, w in cases:
            half = 1 << 8 * w - 1
            widths = _record_widths(monkeypatch)
            det = laurent_det(rows)
            assert det == _bareiss_oracle(rows)
            assert [abs(c) for _, c in det.items()] == [half - 1]
            assert set(widths) == {w}
        # one more unit of norm widens the digit, and so do two products
        # that land on one exponent: a bound from the largest entry of each
        # row alone would be 100 and read 200 back at one byte
        for rows, det in (
            ([[poly({-3: 128}), zero], [zero, poly({5: -1})]], poly({2: -128})),
            ([[poly({0: 100}), poly({1: 100})], [poly({-1: -1}), ONE]], poly({0: 200})),
        ):
            widths = _record_widths(monkeypatch)
            assert laurent_det(rows) == det == _bareiss_oracle(rows)
            assert set(widths) == {2}

    def test_routes_by_size_and_matches_oracle_past_the_subset_table(self, monkeypatch):
        routes = []
        real_subset, real_bareiss = laurent._subset_det, laurent.bareiss_det
        monkeypatch.setattr(laurent, "_subset_det", lambda A: routes.append(("subset", len(A))) or real_subset(A))
        monkeypatch.setattr(
            laurent, "bareiss_det", lambda A, one, div: routes.append(("bareiss", len(A))) or real_bareiss(A, one, div)
        )
        rng = random.Random(71)
        for n in (2, 6, 7, 8):
            for _ in range(6):
                rows = [
                    [random_poly(rng, max_terms=3, exp_range=(-4, 4), coeff_range=(-10**12, 10**12)) for _ in range(n)]
                    for _ in range(n)
                ]
                if rng.random() < 0.3:  # rank-deficient
                    rows[0] = [f * poly({1: 1, 0: -2}) for f in rows[-1]]
                routes.clear()
                assert laurent_det(rows) == _bareiss_oracle(rows), rows
                zero_line = not all(map(any, rows)) or not all(map(any, zip(*rows)))
                assert routes == ([] if zero_line else [("subset" if n <= 6 else "bareiss", n)])

    def test_subset_expansion_matches_matrix_det(self):
        rng = random.Random(67)
        for n in range(7):
            for bound in (1, 10**6, 10**40):
                for _ in range(15):
                    A = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(n)] for _ in range(n)]
                    if n >= 2 and rng.random() < 0.3:  # rank-deficient
                        A[0] = [3 * x for x in A[-1]]
                    assert _subset_det(A) == Matrix.from_rows(A).det(), A

    def test_gamma_takes_no_laurent_product_division_or_bareiss_inside_a_det(self, monkeypatch):
        inside, sizes, seen = [], [], []
        real_det, real_mul = laurent.laurent_det, LaurentPoly.__mul__
        real_div, real_bareiss = laurent.divide_exact, laurent.bareiss_det

        def det(rows):
            inside.append(len(rows))
            try:
                return real_det(rows)
            finally:
                sizes.append(inside.pop())

        def watch(name, real):
            def spy(*args):
                if inside:
                    seen.append(name)
                return real(*args)
            return spy

        def bareiss(rows, one, exact_div):
            if inside and isinstance(one, LaurentPoly):
                seen.append("bareiss over Z[t, t^-1]")
            return real_bareiss(rows, one, exact_div)

        for module in (laurent, fox):
            monkeypatch.setattr(module, "laurent_det", det)
        monkeypatch.setattr(laurent, "divide_exact", watch("divide_exact", real_div))
        monkeypatch.setattr(laurent, "bareiss_det", bareiss)
        monkeypatch.setattr(LaurentPoly, "__mul__", watch("LaurentPoly product", real_mul))
        monkeypatch.setattr(LaurentPoly, "__rmul__", watch("LaurentPoly product", real_mul))
        assert run(["gamma", "--p", "10", "--json"], io.StringIO()) == 0
        # one determinant per row set: the tab E1 takes three 2x2, the
        # Alexander polynomial six 2x2 and fox_ideal_gamma four 3x3
        assert sorted(sizes) == [2] * 9 + [3] * 4
        assert seen == []
