"""Fox free differential calculus and Alexander invariants.

The Fox derivative d/dg on a free group satisfies dg/dg = 1,
d(g^-1)/dg = -g^-1, dh/dg = 0 for h != g, and the product rule
d(uv)/dg = du/dg + u * dv/dg.  Abelianizing the Jacobian of a
presentation's relators through a degree map G -> Z yields the Alexander
matrix over Z[t, t^-1]; its ideals of minors are isomorphism invariants
of the group.

:func:`fox_matrix` builds the Alexander matrix straight from syllables:
a syllable g^e read after a prefix of degree d contributes the geometric
series t^d + t^(d + deg g) + ... + t^(d + (e-1) deg g) for e > 0, and
-(t^(d - deg g) + ... + t^(d - |e| deg g)) for e < 0, to column g.  The
group-ring route (:func:`fox_derivative` then :func:`abelianize_element`)
computes the same entries and serves as the reference.

:func:`alexander_polynomial` shrinks the matrix before taking minors.
Elementary ideals are invariant under elementary row and column
operations (Crowell-Fox, ch. VII; Lickorish, ch. 6), so a unit entry
+-t^k can clear its column and then be deleted with its row and column
without changing E_k, k counted by column deficiency.  Unit pivots are
taken in order of least Markowitz cost, which keeps later pivots units:
Wirtinger presentations of T(p, p+1) shrink to 2x2 and their seam
quotients to 3x2 for every p.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .intlinalg import Matrix
from .laurent import LaurentPoly, laurent_gcd, minors
from .presentations import Presentation, abelianization
from .words import Word


class UnmappedGenerator(ValueError):
    """A group ring element mentions a generator missing from the degree map."""


class NotInfiniteCyclicAbelianization(ValueError):
    """Alexander polynomial requires abelianization Z (rank 1, no torsion)."""


class GroupRingElement:
    """Finite Z-linear combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | Iterable[tuple[Word, int]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[Word, int] = {}
        for w, c in items:
            if c:
                acc[w] = acc.get(w, 0) + c
                if not acc[w]:
                    del acc[w]
        self.terms = acc

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "GroupRingElement":
        return cls({w: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> tuple[tuple[Word, int], ...]:
        return tuple(
            sorted(self.terms.items(), key=lambda wc: (wc[0].length(), wc[0].syllables))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.items())

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, 0) + c
            if not acc[w]:
                del acc[w]
        out = GroupRingElement.zero()
        out.terms = acc
        return out

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                acc[w] = acc.get(w, 0) + c1 * c2
                if not acc[w]:
                    del acc[w]
        out = GroupRingElement.zero()
        out.terms = acc
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElement(0)"
        parts = []
        for w, c in self.items():
            name = str(w) if not w.is_identity() else "1"
            parts.append(f"{c:+d}*({name})")
        return f"GroupRingElement({' '.join(parts)})"


def fox_derivative(w: Word, gen: str) -> GroupRingElement:
    """d(w)/d(gen) in the integral group ring of the free group."""
    acc: dict[Word, int] = {}

    def put(word: Word, coeff: int):
        acc[word] = acc.get(word, 0) + coeff
        if not acc[word]:
            del acc[word]

    prefix = Word.identity()
    for g, e in w.syllables:
        if g == gen:
            if e > 0:
                # d(g^e) = 1 + g + ... + g^(e-1)
                for i in range(e):
                    put(prefix * Word.gen(g, i) if i else prefix, 1)
            else:
                # e < 0: d(g^e) = -(g^-1 + g^-2 + ... + g^e)
                for i in range(-1, e - 1, -1):
                    put(prefix * Word.gen(g, i), -1)
        prefix = prefix * Word.gen(g, e)
    return GroupRingElement(acc)


def abelianize_element(
    e: GroupRingElement, degree_map: Mapping[str, int]
) -> LaurentPoly:
    """Send each word to t^(weighted exponent sum) and collect coefficients."""
    acc: dict[int, int] = {}
    for w, c in e.terms.items():
        missing = w.generators() - set(degree_map)
        if missing:
            raise UnmappedGenerator(
                f"no degree assigned for generator(s) {sorted(missing)}"
            )
        d = w.degree(degree_map)
        acc[d] = acc.get(d, 0) + c
    return LaurentPoly(acc)


def _fox_row(
    relator: Word, column: Mapping[str, int], degree_map: Mapping[str, int]
) -> list[list[tuple[int, int]]]:
    # One pass over the syllables with a running prefix degree d; each
    # column collects (exponent, coefficient) terms for LaurentPoly to sum.
    row: list[list[tuple[int, int]]] = [[] for _ in column]
    d = 0
    for g, e in relator.syllables:
        deg = degree_map.get(g)
        if deg is None:
            raise UnmappedGenerator(f"no degree assigned for generator {g!r}")
        j = column.get(g)
        if j is not None:
            if e > 0:
                row[j].extend((d + i * deg, 1) for i in range(e))
            else:
                row[j].extend((d - i * deg, -1) for i in range(1, 1 - e))
        d += e * deg
    return row


def fox_matrix(
    generators: Iterable[str],
    relators: Iterable[Word],
    degree_map: Mapping[str, int],
) -> Matrix:
    """Abelianized Fox Jacobian, one row per relator and one column per
    generator; raises UnmappedGenerator when a relator mentions a
    generator with no degree.
    """
    column = {g: j for j, g in enumerate(generators)}
    rels = tuple(relators)
    entries = [
        LaurentPoly(terms) for r in rels for terms in _fox_row(r, column, degree_map)
    ]
    return Matrix(len(rels), len(column), entries)


def alexander_matrix(P: Presentation, degree_map: Mapping[str, int]) -> Matrix:
    """Abelianized Fox Jacobian: entry (i, j) is the image of
    d(relator_i)/d(generator_j) under the degree map.
    """
    for r in P.relators:
        if r.degree(degree_map) != 0:
            raise ValueError(f"degree map does not kill relator {r}")
    return fox_matrix(P.generators, P.relators, degree_map)


def elementary_ideal(M: Matrix, k: int) -> tuple[LaurentPoly, ...]:
    """The k-th elementary (Fitting) ideal: the ideal of (n-k) x (n-k)
    minors, n = column count, as its generators.  E_k for k >= n is the
    whole ring; when n - k exceeds the row count the ideal is zero.

    The generators are canonical, nonzero and deduplicated, and collapse
    to (1,) when any of them is a unit, since the ideal is then the whole
    ring; the zero ideal is ().
    """
    n = M.cols
    if k >= n:
        return (LaurentPoly.one(),)
    size = n - k
    if size > M.rows:
        return ()
    # minors are already canonical, nonzero and deduplicated
    gens = tuple(minors(M, size))
    if LaurentPoly.one() in gens:
        return (LaurentPoly.one(),)
    return gens


def _eliminate_unit_pivots(M: Matrix) -> Matrix:
    """Delete unit pivots +-t^k with their row and column after clearing
    their column by exact row operations; E_k is unchanged for every k.

    Each step takes the unit of least Markowitz cost
    (row nnz - 1) * (col nnz - 1), first in row-major order on ties, and
    stops when no entry is a unit.  Every minor of the result is, up to
    a unit, a minor of M one size larger per deleted pivot.
    """
    grid = M.row_lists()
    cols = M.cols
    while True:
        col_nnz = [sum(1 for row in grid if row[j]) for j in range(cols)]
        best = None
        for i, row in enumerate(grid):
            row_nnz = sum(1 for x in row if x)
            for j, x in enumerate(row):
                if x.is_unit():
                    cost = (row_nnz - 1) * (col_nnz[j] - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            return Matrix(len(grid), cols, [x for row in grid for x in row])
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
        cols -= 1


def alexander_polynomial(P: Presentation) -> LaurentPoly:
    """Canonical generator of the smallest principal ideal containing the
    first elementary ideal of the Alexander matrix, i.e. the gcd of all
    maximal minors.

    The minors are taken of the matrix left after unit-pivot elimination,
    which has the same first elementary ideal and so the same gcd.
    Returns 1 for the one-generator free presentation and 0 if every
    maximal minor vanishes.
    """
    ab = abelianization(P)
    if not ab.is_infinite_cyclic():
        raise NotInfiniteCyclicAbelianization(
            f"abelianization has rank {ab.free_rank} and torsion {list(ab.torsion)}"
        )
    M = _eliminate_unit_pivots(fox_matrix(P.generators, P.relators, ab.degree_map))
    return laurent_gcd(elementary_ideal(M, 1))
