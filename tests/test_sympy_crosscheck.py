"""Cross-checks of the Laurent kernels against sympy at small sizes.

sympy is a test-only oracle; knotcert itself has no runtime dependencies.
"""

import random

import pytest

from knotcert.laurent import LaurentPoly, cyclotomic, laurent_det, laurent_gcd

sympy = pytest.importorskip("sympy")

t = sympy.Symbol("t")


def random_poly(rng, max_terms=4, exp_range=(-4, 4), coeff_range=(-5, 5)):
    return LaurentPoly(
        [(rng.randint(*exp_range), rng.randint(*coeff_range)) for _ in range(rng.randint(0, max_terms))]
    )


def to_sympy(f):
    return sum((c * t**e for e, c in f.items()), sympy.Integer(0))


def from_sympy(expr, shift):
    # expr * t^shift must be an ordinary polynomial in t
    poly = sympy.Poly(sympy.expand(expr * t**shift), t)
    return LaurentPoly({e - shift: int(c) for (e,), c in poly.terms()})


def test_cyclotomic_matches_sympy():
    for n in [*range(1, 61), 1640, 3660, 6480]:
        expected = from_sympy(sympy.cyclotomic_poly(n, t), 0)
        assert cyclotomic(n) == expected, n


def test_gcd_matches_sympy():
    rng = random.Random(21)
    checked = 0
    while checked < 60:
        common = random_poly(rng, max_terms=3)
        fs = [random_poly(rng) * common for _ in range(rng.randint(1, 3))]
        if all(f.is_zero() for f in fs):
            continue
        checked += 1
        # strip t^min_exp so each input is a polynomial in Z[t]
        expected = sympy.Integer(0)
        for f in fs:
            if f:
                expected = sympy.gcd(expected, to_sympy(f.shifted(-f.min_exp())))
        assert laurent_gcd(fs) == from_sympy(expected, 0).canonical()


def test_det_matches_sympy():
    rng = random.Random(22)
    for n in range(1, 5):
        for _ in range(8):
            rows = [
                [random_poly(rng, max_terms=2, exp_range=(-2, 2), coeff_range=(-3, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            expected = sympy.Matrix([[to_sympy(e) for e in row] for row in rows]).det(method="berkowitz")
            assert laurent_det(rows) == from_sympy(expected, 2 * n)


def test_gcd_of_tall_fox_entries_matches_sympy():
    # the two Fox entries of x^e y^-(e+1), up to units: sparse, degree ~e^2
    for e in (10, 25, 40, 60):
        fx = LaurentPoly([((e + 1) * i, 1) for i in range(e)])
        fy = LaurentPoly([(e * i, 1) for i in range(e + 1)])
        expected = sympy.gcd(to_sympy(fx), to_sympy(fy))
        assert laurent_gcd([fx, fy]) == from_sympy(expected, 0).canonical(), e
