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

:func:`alexander_polynomial` builds the same rows sparse, with no dense
matrix, and shrinks them before taking any determinant.  Elementary
ideals are invariant under elementary row and column operations
(Crowell-Fox, ch. VII; Lickorish, ch. 6), so a unit entry +-t^k can
clear its column and then be deleted with its row and column without
changing E_k, k counted by column deficiency.
:func:`intlinalg.eliminate_unit_pivots` takes the unit pivots in order of
least Markowitz cost, which keeps later pivots units: Wirtinger
presentations of T(p, p+1) shrink to 2x2 and their seam quotients to 3x2
for every p.  It updates only the rows of each pivot's column, so its
cost follows the nonzero entries, not the matrix size.

It then takes one determinant per row set, not every maximal minor.
Fox's fundamental formula, sum_j (dr/dx_j)(x_j - 1) = r - 1, abelianizes
to M v = 0 with v_j = t^(d_j) - 1, so the minors of one row set are
binomial multiples of one of them, and
Delta = gcd_R(u_R) * (t - 1)/(t^|d_j0| - 1) for j0 a kept column of least
nonzero degree.  The kept generators generate H1 = Z, so their degrees
have gcd 1 and Delta(1) = +-1; both are checked, and a failure raises
:class:`BrokenInvariant`, with no second route through full minors.

:func:`first_elementary_ideal` lists E1 itself, generator for generator
as :func:`elementary_ideal` lists the minors of the Alexander matrix,
from the same formula and the same row-set helper: one determinant u_R
per row set, with no unit-pivot elimination, and every other minor of R
an exact binomial multiple of u_R, one per distinct |d_j|.  A column of
degree 0 has only zero minors, so the three-generator rewriting of
gamma takes three 2x2 determinants where the full minors took nine.
:func:`elementary_ideal` still takes every minor, for the E_k of any k
and as the test oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping

from .intlinalg import Matrix, eliminate_unit_pivots
from .laurent import LaurentPoly, divide_exact, laurent_det, laurent_gcd, minors
from .presentations import AbelianizationResult, Presentation, abelianization
from .words import Word


class UnmappedGenerator(ValueError):
    """A group ring element mentions a generator missing from the degree map."""


class NotInfiniteCyclicAbelianization(ValueError):
    """Alexander polynomial requires abelianization Z (rank 1, no torsion)."""


class BrokenInvariant(AssertionError):
    """A fact the Alexander polynomial computation proves always holds
    failed; a raise means an implementation bug."""


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

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

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
) -> dict[int, dict[int, int]]:
    # One pass over the syllables with a running prefix degree d; each
    # column sums its terms into one coefficient map, and the zero
    # coefficients and entries left by cancellation are then dropped.
    row: dict[int, dict[int, int]] = {}
    d = 0
    for g, e in relator.syllables:
        deg = degree_map.get(g)
        if deg is None:
            raise UnmappedGenerator(f"no degree assigned for generator {g!r}")
        j = column.get(g)
        if j is not None:
            x = row.setdefault(j, {})
            sign, k = (1, d) if e > 0 else (-1, d - deg)
            for _ in range(abs(e)):
                x[k] = x.get(k, 0) + sign
                k += sign * deg
        d += e * deg
    for j in [j for j, x in row.items() if not all(x.values())]:
        x = {k: c for k, c in row[j].items() if c}
        if x:
            row[j] = x
        else:
            del row[j]
    return row


def _laurent(x: dict[int, int] | None) -> LaurentPoly:
    return LaurentPoly._trusted(x) if x else LaurentPoly()


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
    rows = [_fox_row(r, column, degree_map) for r in relators]
    return Matrix(len(rows), len(column), [_laurent(row.get(j)) for row in rows for j in range(len(column))])


def alexander_matrix(P: Presentation, degree_map: Mapping[str, int]) -> Matrix:
    """Abelianized Fox Jacobian: entry (i, j) is the image of
    d(relator_i)/d(generator_j) under the degree map.
    """
    _check_kills_relators(P, degree_map)
    return fox_matrix(P.generators, P.relators, degree_map)


def _check_kills_relators(P: Presentation, degree_map: Mapping[str, int]) -> None:
    for r in P.relators:
        if r.degree(degree_map) != 0:
            raise ValueError(f"degree map does not kill relator {r}")


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


def _row_set_dets(grid: list[list[LaurentPoly]], size: int) -> list[LaurentPoly]:
    """The determinant of every set R of `size` rows of grid, in
    lexicographic order of R: u_R, for grid the matrix with column j0
    deleted and size its width."""
    return [laurent_det([grid[i] for i in rows]) for rows in itertools.combinations(range(len(grid)), size)]


def first_elementary_ideal(P: Presentation, degree_map: Mapping[str, int]) -> tuple[LaurentPoly, ...]:
    """elementary_ideal(alexander_matrix(P, degree_map), 1), generator for
    generator and in the same order, from one determinant per row set.

    Fox's fundamental formula abelianizes to M v = 0 with
    v_j = t^(d_j) - 1 (see alexander_polynomial; a generator no relator
    mentions has a zero column, and d_j = 0 serves).  So for a set R of
    c - 1 rows, the minor A_j that deletes column j is
    +-u_R (t^|d_j| - 1)/(t^|d_j0| - 1), with j0 the first column of least
    nonzero |d| and u_R = A_j0: 0 when d_j = 0, and one exact binomial
    division per distinct |d_j| otherwise.  Column j0 itself enters no
    u_R, so it is never built.  The generators are made canonical,
    deduplicated and collapsed to (1,) as elementary_ideal does; a degree
    map that is zero on every generator relates no minors, and takes
    elementary_ideal's full minors.
    """
    degrees = [abs(degree_map.get(g, 0)) for g in P.generators]
    c = len(degrees)
    if c <= 1 or c - 1 > len(P.relators) or not any(degrees):
        return elementary_ideal(alexander_matrix(P, degree_map), 1)
    _check_kills_relators(P, degree_map)
    d0 = min(d for d in degrees if d)
    j0 = degrees.index(d0)
    grid = fox_matrix(P.generators[:j0] + P.generators[j0 + 1 :], P.relators, degree_map).row_lists()
    binomial = LaurentPoly({d0: 1, 0: -1})
    gens: dict[LaurentPoly, None] = {}
    for u in _row_set_dets(grid, c - 1):
        if not u:
            continue
        by_degree = {d0: u.canonical()}
        for d in filter(None, reversed(degrees)):
            if d not in by_degree:
                by_degree[d] = divide_exact(u.times_binomial(d), binomial).canonical()
            gens[by_degree[d]] = None
    if LaurentPoly.one() in gens:
        return (LaurentPoly.one(),)
    return tuple(gens)


def alexander_polynomial(P: Presentation) -> LaurentPoly:
    """Canonical generator of the smallest principal ideal containing the
    first elementary ideal of the Alexander matrix, i.e. the gcd of all
    maximal minors, taken as one determinant per row set.

    The sparse Fox rows of M are reduced by
    :func:`intlinalg.eliminate_unit_pivots` to an r x c matrix M' with the
    same first elementary ideal.  Fox's
    fundamental formula, sum_j (dr/dx_j)(x_j - 1) = r - 1, abelianizes to
    M v = 0 with v_j = t^(d_j) - 1 for the degree map d.  Row operations
    keep M v = 0, and a pivot's column is zero in every other row before it
    is deleted, so M' v' = 0 for v' the entries of v at the kept columns.
    For a set R of c - 1 rows, write A_j for the minor of R with column j
    deleted.  The signed minors (-1)^j A_j span the kernel of the rows R
    when they have rank c - 1 and all vanish otherwise, so
    v_j0 A_j = +-v_j A_j0 for every j (Crowell and Fox, "Introduction to
    Knot Theory", ch. VII).  With j0 the first kept column of least
    nonzero |d|, and u_R = A_j0, every maximal minor of R is
    +-u_R (t^(d_j) - 1)/(t^(d_j0) - 1), and the gcd over j of t^(d_j) - 1
    is t^g - 1, g the gcd of the kept degrees.  So

        Delta = gcd_R(u_R) * (t - 1)/(t^|d_j0| - 1),

    made canonical, once g = 1.  It is: unit-pivot elimination turns the
    integer exponent-sum matrix M(1) into M'(1) by the same steps at
    t = 1, each solving one relation for one generator, so the kept
    generators generate H1 = Z, and d, an isomorphism H1 -> Z, sends them
    to a set of integers with gcd 1.  The (c - 1)-minors of M'(1) generate
    the first Fitting ideal of Z, which is Z, so Delta(1) = +-1; in
    particular Delta is never 0, and r >= c - 1.

    A matrix with r = c - 1 has one row set and needs no gcd; when
    |d_j0| = 1 there is no division.  There is no second route through
    full minors: a kept-degree gcd other than 1 or a Delta(1) other than
    +-1 can only be a bug, and raises BrokenInvariant.  Returns 1 for the
    one-generator free presentation.
    """
    return _alexander_polynomial(P, abelianization(P))


def _alexander_polynomial(P: Presentation, ab: AbelianizationResult) -> LaurentPoly:
    """alexander_polynomial(P), given ab = abelianization(P)."""
    if not ab.is_infinite_cyclic():
        raise NotInfiniteCyclicAbelianization(
            f"abelianization has rank {ab.free_rank} and torsion {list(ab.torsion)}"
        )
    column = {g: j for j, g in enumerate(P.generators)}
    rows = [_fox_row(r, column, ab.degree_map) for r in P.relators]
    M, kept = eliminate_unit_pivots(rows, len(column), _laurent)
    degrees = [abs(ab.degree_map[P.generators[j]]) for j in kept]
    if math.gcd(*degrees) != 1:
        raise BrokenInvariant(f"the kept generators have degrees {degrees}, gcd not 1")
    d0 = min(d for d in degrees if d)
    j0 = degrees.index(d0)
    delta = laurent_gcd(_row_set_dets([row[:j0] + row[j0 + 1 :] for row in M.row_lists()], M.cols - 1))
    if d0 > 1:
        delta = divide_exact(delta.times_binomial(1), LaurentPoly({d0: 1, 0: -1})).canonical()
    if delta.value_at_one() not in (1, -1):
        raise BrokenInvariant(f"Delta = {delta} does not take the value +-1 at t = 1")
    return delta
