"""Finitely presented groups: presentations, adding a relator, and
abelianization.  The sparse exponent-sum rows lose their unit pivots
first, each one solving a relator for a generator, and Smith normal form
runs only on what is left (Dumas, Saunders and Villard, J. Symbolic
Comput. 32, 2001); the degree map is back-substituted through the pivots.

Relators are stored freely and cyclically reduced.  No heuristic
simplification is ever attempted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .intlinalg import Matrix, eliminate_unit_pivots, smith_normal_form
from .words import ForeignGenerator, Word


# A generator name: ASCII letters, digits and underscores, so that every
# name a Presentation accepts is one the presentation file format reads back.
NAME_PATTERN = r"[A-Za-z0-9_]+"
_NAME_RE = re.compile(NAME_PATTERN)


class Presentation:
    """An ordered generator list plus a list of relator words.

    Relators are stored freely and cyclically reduced; relators that
    reduce to the identity impose nothing and are not stored.
    """

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable[Word] = ()):
        gens = tuple(generators)
        for g in gens:
            if not _NAME_RE.fullmatch(g):
                raise ValueError(f"invalid generator name {g!r}")
        if len(set(gens)) != len(gens):
            raise ValueError("generator names must be unique")
        gen_set = set(gens)
        rels = []
        for r in relators:
            foreign = r.generators() - gen_set
            if foreign:
                raise ForeignGenerator(
                    f"relator {r} uses unknown generator(s) {sorted(foreign)}"
                )
            reduced = r.cyclically_reduced()
            if not reduced.is_identity():
                rels.append(reduced)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(rels))

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __repr__(self) -> str:
        gens = ", ".join(self.generators)
        rels = "; ".join(str(r) for r in self.relators)
        return f"Presentation(<{gens} | {rels}>)"


@dataclass(frozen=True)
class AbelianizationResult:
    free_rank: int
    torsion: tuple[int, ...]
    degree_map: Optional[dict[str, int]]

    def is_infinite_cyclic(self) -> bool:
        return self.free_rank == 1 and not self.torsion


def _exponent_rows(P: Presentation) -> list[dict[int, int]]:
    # relator exponent sums by generator index, zeros included
    index = {g: j for j, g in enumerate(P.generators)}
    rows = []
    for r in P.relators:
        row: dict[int, int] = {}
        for g, e in r.syllables:
            j = index[g]
            row[j] = row.get(j, 0) + e
        rows.append(row)
    return rows


def exponent_matrix(P: Presentation) -> Matrix:
    """Relator exponent sums: one row per relator, one column per generator."""
    n = len(P.generators)
    rows = _exponent_rows(P)
    return Matrix(len(rows), n, [row.get(j, 0) for row in rows for j in range(n)])


def add_relator(P: Presentation, w: Word) -> Presentation:
    """Quotient by the normal closure of w: append w as a relator."""
    foreign = w.generators() - set(P.generators)
    if foreign:
        raise ForeignGenerator(
            f"word {w} uses unknown generator(s) {sorted(foreign)}"
        )
    return Presentation(P.generators, P.relators + (w,))


def abelianization(P: Presentation) -> AbelianizationResult:
    """Invariant factors of the abelianized group.  When the result is
    infinite cyclic, a degree map is attached: the generator images under
    a fixed isomorphism to Z, signed so the first generator with nonzero
    image maps positively.

    :func:`eliminate_unit_pivots` deletes the +-1 pivots of the sparse
    exponent-sum rows, and :func:`smith_normal_form` diagonalizes the
    rest: each pivot adds a 1 to the diagonal, so the rank is the pivot
    count plus the rest's rank and the torsion is the rest's.  The degree
    map spans the kernel, which is rank one; its entries at the kept
    columns are a column of the rest's V, and each pivot row, solved for
    its generator in reverse order, gives the others.  That vector is
    primitive because its kept entries are, so it is the dense route's
    degree map up to the sign the rule fixes.
    """
    n = len(P.generators)
    rows = [{j: {0: e} for j, e in row.items() if e} for row in _exponent_rows(P)]
    pivots: list = []
    rest, kept = eliminate_unit_pivots(rows, n, lambda x: x[0] if x else 0, pivots)
    snf = smith_normal_form(rest)
    diag = snf.diagonal()
    free_rank = n - len(pivots) - sum(1 for d in diag if d)
    torsion = tuple(d for d in diag if d > 1)
    degree_map = None
    if free_rank == 1 and not torsion:
        # kernel of the rest = V * e_j for the unique index j whose
        # diagonal entry is absent or zero
        free_index = next(
            j for j in range(len(kept)) if j >= len(diag) or diag[j] == 0
        )
        x = dict(zip(kept, snf.V.column(free_index)))
        for j, row in reversed(pivots):
            x[j] = -row[j][0] * sum(y[0] * x[c] for c, y in row.items() if c != j)
        column = [x[j] for j in range(n)]
        first = next(c for c in column if c)
        if first < 0:
            column = [-c for c in column]
        degree_map = dict(zip(P.generators, column))
    return AbelianizationResult(free_rank=free_rank, torsion=torsion, degree_map=degree_map)
