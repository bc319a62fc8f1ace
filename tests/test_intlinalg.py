import ast
import inspect
import math
import random
from itertools import combinations

import pytest

from knotcert import intlinalg
from knotcert.intlinalg import Matrix, smith_normal_form


def cofactor_det(rows):
    # independent oracle: first-row cofactor expansion
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(sub)
    return total


def minors_gcd_oracle(A, k):
    # gcd of all k x k minors, by brute-force cofactor determinants
    grid = A.row_lists()
    g = 0
    for ri in combinations(range(A.rows), k):
        for ci in combinations(range(A.cols), k):
            g = math.gcd(g, cofactor_det([[grid[i][j] for j in ci] for i in ri]))
    return g


def snf_diagonal_oracle(A):
    # d_k = gcd(k-minors) / gcd((k-1)-minors), zero once the minors vanish
    diag = []
    prev = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        g = minors_gcd_oracle(A, k)
        diag.append(0 if g == 0 else g // prev)
        if g == 0:
            prev = 1  # unused afterwards; remaining entries are zero
        else:
            prev = g
    # once a zero appears everything after is zero
    seen_zero = False
    for i, d in enumerate(diag):
        if seen_zero:
            diag[i] = 0
        elif d == 0:
            seen_zero = True
    return diag


def assert_snf_contract(A):
    snf = smith_normal_form(A)
    assert snf.U.mul(A).mul(snf.V) == snf.D
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for i in range(1, len(diag)):
        if diag[i - 1]:
            assert diag[i] % diag[i - 1] == 0
        else:
            assert diag[i] == 0
    # off-diagonal entries vanish
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert snf.D.entry(i, j) == 0
    return snf


def test_identity():
    snf = assert_snf_contract(Matrix.identity(2))
    assert snf.diagonal() == [1, 1]


def test_two_by_two():
    # gcd of entries is 2 and |det| = 8, so the diagonal is (2, 4)
    snf = assert_snf_contract(Matrix.from_rows([[2, 4], [6, 8]]))
    assert snf.diagonal() == [2, 4]


def test_four_generator_exponent_matrix():
    A = Matrix.from_rows(
        [[2, 3, 0, 0], [0, 0, 2, 3], [1, 1, -1, -1], [1, 1, -1, -1]]
    )
    snf = assert_snf_contract(A)
    assert snf.diagonal() == [1, 1, 1, 0]


def test_zero_and_empty_shapes():
    assert_snf_contract(Matrix(2, 3, [0] * 6))
    assert_snf_contract(Matrix(0, 3, []))
    assert_snf_contract(Matrix(3, 0, []))
    assert_snf_contract(Matrix(0, 0, []))


def test_random_matrices_match_minor_gcd_oracle():
    rng = random.Random(91)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = Matrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        snf = assert_snf_contract(A)
        assert snf.diagonal() == snf_diagonal_oracle(A)


def test_random_larger_matrices_contract_only():
    rng = random.Random(92)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = Matrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        assert_snf_contract(A)


def test_det_matches_cofactor_oracle():
    rng = random.Random(94)
    for n in range(6):
        for _ in range(40):
            # small entries make zero pivots, row swaps and singular matrices common
            bound = rng.choice((1, 9))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            assert Matrix.from_rows(rows).det() == cofactor_det(rows)
    with pytest.raises(ValueError):
        Matrix(2, 3, [0] * 6).det()


def eliminated_det(rows):
    # oracle: fraction-free elimination with no triangular shortcut
    n = len(rows)
    m = [row[:] for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def counting_floordiv(calls):
    def exact_div(a, b):
        calls.append((a, b))
        return a // b

    return exact_div


def test_triangular_det_takes_no_division():
    rng = random.Random(95)
    for n in range(13):
        for _ in range(20):
            # zero diagonal entries, so det 0, are common at bound 1
            bound = rng.choice((1, 9, 10**30))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            for keep in (lambda i, j: i >= j, lambda i, j: i <= j):
                tri = [[x if keep(i, j) else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
                calls = []
                det = intlinalg.bareiss_det(tri, 1, counting_floordiv(calls))
                assert calls == []
                assert det == math.prod(tri[i][i] for i in range(n)) == eliminated_det(tri)
                if n <= 6:
                    assert det == cofactor_det(tri)


def test_det_matches_elimination_without_the_shortcut():
    rng = random.Random(96)
    divided = 0
    for n in range(10):
        for _ in range(40):
            bound = rng.choice((1, 9))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            calls = []
            assert intlinalg.bareiss_det(rows, 1, counting_floordiv(calls)) == eliminated_det(rows)
            divided += bool(calls)
    assert divided >= 200


def test_entry_count_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])


def test_imports_nothing_from_laurent():
    # laurent builds on intlinalg (Matrix, bareiss_det), never the reverse
    tree = ast.parse(inspect.getsource(intlinalg))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "laurent" in name}
