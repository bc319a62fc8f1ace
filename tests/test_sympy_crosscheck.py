"""Cross-checks of the Laurent kernels and of Smith normal form against
sympy at small sizes.

sympy is a test-only oracle; knotcert itself has no runtime dependencies.
"""

import random

import pytest

from knotcert import presentations
from knotcert.laurent import LaurentPoly, cyclotomic, laurent_det, laurent_gcd
from knotcert.presentations import abelianization

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

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


def test_abelianization_remainder_snf_matches_sympy(monkeypatch):
    # The matrix left after unit-pivot elimination is the only one
    # abelianization hands to smith_normal_form; its diagonal must be
    # sympy's, and so must the invariants of the whole exponent matrix.
    from test_presentations import random_integer_presentation

    seen = []
    real = presentations.smith_normal_form
    monkeypatch.setattr(presentations, "smith_normal_form", lambda M: seen.append(M) or real(M))
    rng = random.Random(25)
    nontrivial = 0
    for _ in range(150):
        P = random_integer_presentation(rng)
        seen.clear()
        ab = abelianization(P)
        (rest,) = seen
        nontrivial += rest.rows > 0 and rest.cols > 0 and any(rest.entries)
        ours = [d for d in real(rest).diagonal() if d]
        D = normalforms.smith_normal_form(sympy.Matrix(rest.rows, rest.cols, list(rest.entries)), domain=sympy.ZZ)
        theirs = [abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i]]
        assert ours == theirs, P
        A = presentations.exponent_matrix(P)
        full = normalforms.invariant_factors(sympy.Matrix(A.rows, A.cols, list(A.entries)), domain=sympy.ZZ)
        full = [abs(int(d)) for d in full if d]
        assert ab.torsion == tuple(d for d in full if d > 1), P
        assert ab.free_rank == len(P.generators) - len(full), P
    assert nontrivial >= 40
