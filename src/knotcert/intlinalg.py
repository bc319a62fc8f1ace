"""Exact matrices over Z and Z[t, t^-1], fraction-free determinants and
Smith normal form.

:class:`Matrix` holds the entries of one matrix over any exact ring: the
integer exponent-sum matrices of presentations and the Fox matrices over
Z[t, t^-1] are both Matrix instances.  :func:`bareiss_det` is the only
fraction-free elimination, over any integral domain.  It serves
``Matrix.det``, and ``laurent.laurent_det`` for the integer determinants
of packed Laurent matrices larger than 6 x 6.

smith_normal_form produces unimodular U, V with U*A*V = D, where D is
diagonal with nonnegative entries d1 | d2 | ... ; D is unique.  Used to
compute abelianizations of finitely presented groups from relator
exponent-sum matrices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


class Matrix:
    """Immutable rows x cols matrix over an exact ring, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        if len(self.entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = [e for row in rows for e in row]
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        """The n x n integer identity."""
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def column(self, j: int) -> list:
        return [self.entry(i, j) for i in range(self.rows)]

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product of two integer matrices."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(
                    sum(self.entry(i, k) * other.entry(k, j) for k in range(self.cols))
                )
        return Matrix(self.rows, other.cols, out)

    def diagonal(self) -> list:
        return [self.entry(i, i) for i in range(min(self.rows, self.cols))]

    def det(self) -> int:
        """Determinant of a square integer matrix by :func:`bareiss_det`;
        Laurent matrices use ``laurent.laurent_det``.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return bareiss_det(self.row_lists(), 1, operator.floordiv)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def bareiss_det(rows: list[list[T]], one: T, exact_div: Callable[[T, T], T]) -> T:
    """Determinant of a square matrix over an integral domain by
    fraction-free (Bareiss) elimination.

    exact_div(a, b) must return a / b whenever b divides a; every division
    the elimination performs is of that kind.  The first step's divisor is
    one and is skipped, so an n x n matrix with nonzero pivots makes
    (n-2)(n-1)(2n-3)/6 calls, none for n <= 2.  The empty matrix has
    determinant one.

    >>> bareiss_det([[2, 1], [4, 5]], 1, lambda a, b: a // b)
    6
    """
    n = len(rows)
    if n == 0:
        return one
    m = [row[:] for row in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return m[k][k]  # the rest of column k is zero, and so is det
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                x = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(x, prev) if k else x
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det



@dataclass(frozen=True)
class SnfResult:
    U: Matrix
    D: Matrix
    V: Matrix

    def diagonal(self) -> list[int]:
        return self.D.diagonal()


def smith_normal_form(A: Matrix) -> SnfResult:
    """Diagonalize A over Z: returns U, D, V with U*A*V = D, U and V
    unimodular, D diagonal with nonnegative entries and d_i | d_{i+1}.

    Pivoting always picks the entry of least nonzero absolute value in the
    remaining submatrix, which keeps intermediate entries small at the
    sizes that occur here.
    """
    m, n = A.rows, A.cols
    D = A.row_lists()
    U = Matrix.identity(m).row_lists()
    V = Matrix.identity(n).row_lists()

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        # row_dst += mult * row_src
        D[dst] = [a + mult * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + mult * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, mult):
        for row in D:
            row[dst] += mult * row[src]
        for row in V:
            row[dst] += mult * row[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
            dirty = [i for i in range(t + 1, m) if D[i][t]]
            if dirty:
                i = min(dirty, key=lambda r: abs(D[r][t]))
                swap_rows(t, i)
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
            dirty = [j for j in range(t + 1, n) if D[t][j]]
            if dirty:
                j = min(dirty, key=lambda c: abs(D[t][c]))
                swap_cols(t, j)
                continue
            # pivot must divide every remaining entry for d_i | d_{i+1}
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(min(m, n)):
        if D[i][i] < 0:
            negate_row(i)

    return SnfResult(
        U=Matrix.from_rows(U) if m else Matrix(0, 0, []),
        D=Matrix(m, n, [e for row in D for e in row]),
        V=Matrix.from_rows(V) if n else Matrix(0, 0, []),
    )
