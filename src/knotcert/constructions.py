"""Constructions for the doubled torus-knot family and its invariant
certificates.

The pipeline: a Wirtinger-style presentation of the (p, p+1) torus knot
group; the seam commutator tau = [a1, a1...ap]; the doubled knot group
with its meridian identification; the four-generator quotient groups
G_p = <u,v,x,y | u^p v^(p+1), x^p y^(p+1), uv=xy, vu=yx>; their
three-generator rewriting over t = xy, a = t^p v, b = t^p y; the
annihilator polynomial and the order ideal of the associated Alexander
module; and, finally, pairwise distinctness certificates built from exact
cyclotomic divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .fox import (
    NotInfiniteCyclicAbelianization,
    _alexander_polynomial,
    alexander_polynomial,
    elementary_ideal,
    first_elementary_ideal,
)
from .intlinalg import Matrix
from .laurent import LaurentPoly, cyclotomic_multiplicity
from .presentations import Presentation, abelianization, add_relator
from .torus import (
    HomomorphismReport,
    TorusKnotParams,
    TorusNF,
    apply_images,
    is_in_commutator_subgroup,
    normal_form,
    product_to_amalgam,
    verify_homomorphism,
    wirtinger_standard_images,
)
from .words import Word, commutator, relator_equivalent, replace_subword


class InvalidP(ValueError):
    """Family parameter out of range."""


class BadPair(ValueError):
    """Distinctness certificates need 1 <= p < k."""


class MismatchError(AssertionError):
    """The two independent routes to the same presentation disagree.

    Raised by gamma_tab_presentation when rewriting the four-generator
    presentation does not reproduce the closed-form relators, and by
    checked_annihilator_poly when an annihilator polynomial does not equal
    its quotient of binomials; these are built-in fidelity checks, so a raise
    means an implementation bug.
    """


def _gen(name: str, exp: int = 1) -> Word:
    return Word.gen(name, exp)


def _strand_product(prefix: str, p: int) -> Word:
    """a1 a2 ... ap (or b1 ... bp)."""
    out = Word.identity()
    for i in range(1, p + 1):
        out = out * _gen(f"{prefix}{i}")
    return out


def _wirtinger_relators(z: str, prefix: str, p: int) -> list[Word]:
    # z = (a1 ... ap) a1, then z a1 z^-1 = ap and z a_k z^-1 = a_(k-1).
    strand = _strand_product(prefix, p)
    rels = [_gen(z) * (strand * _gen(f"{prefix}1")).inverse()]
    rels.append(
        _gen(z) * _gen(f"{prefix}1") * _gen(z, -1) * _gen(f"{prefix}{p}", -1)
    )
    for k in range(2, p + 1):
        rels.append(
            _gen(z) * _gen(f"{prefix}{k}") * _gen(z, -1) * _gen(f"{prefix}{k - 1}", -1)
        )
    return rels


def torus_wirtinger(p: int) -> Presentation:
    """Arc-generator presentation of the (p, p+1) torus knot group,
    read off a stack of p+1 twist regions:

        <z, a1..ap | z = a1...ap a1, z a1 z^-1 = ap, z a_k z^-1 = a_(k-1)>

    One relator is redundant.
    """
    if p < 2:
        raise InvalidP(f"need p >= 2, got {p}")
    gens = ("z",) + tuple(f"a{i}" for i in range(1, p + 1))
    return Presentation(gens, _wirtinger_relators("z", "a", p))


def tau_word(p: int) -> Word:
    """The seam commutator [a1, a1 a2 ... ap] in the Wirtinger generators;
    the curve the doubling construction is performed along.  Its exponent
    sums all vanish, so it lies in the commutator subgroup.
    """
    if p < 2:
        raise InvalidP(f"need p >= 2, got {p}")
    return commutator(_gen("a1"), _strand_product("a", p))


@dataclass(frozen=True)
class TauReport:
    """What tau_report(p) finds: tau, its image in <x, y | x^p y^(p+1)> and
    that image's normal form, and the quotient of torus_wirtinger(p) by tau,
    whose alexander is None unless the quotient abelianizes to Z."""

    tau: Word
    exponent_sums_zero: bool
    image: Word
    image_nf: TorusNF
    in_commutator: bool
    infinite_cyclic: bool
    alexander: LaurentPoly | None

    @property
    def image_nontrivial(self) -> bool:
        return not self.image_nf.is_trivial()

    @property
    def ok(self) -> bool:
        # the one place the verdict rule lives
        return (
            self.exponent_sums_zero
            and self.image_nontrivial
            and self.in_commutator
            and self.infinite_cyclic
            and self.alexander == LaurentPoly.one()
        )


def tau_report(p: int) -> TauReport:
    """Check that tau_word(p) is a nontrivial commutator whose quotient
    has abelianization Z and Alexander polynomial 1; InvalidP for p < 2."""
    tau = tau_word(p)
    tk = TorusKnotParams(p, p + 1)
    image = apply_images(tau, wirtinger_standard_images(p))
    try:
        alexander = alexander_polynomial(add_relator(torus_wirtinger(p), tau))
    except NotInfiniteCyclicAbelianization:
        alexander = None
    return TauReport(
        tau=tau,
        exponent_sums_zero=tau.exponent_sums() == {},
        image=image,
        image_nf=normal_form(tk, product_to_amalgam(image)),
        in_commutator=is_in_commutator_subgroup(tk, image),
        infinite_cyclic=alexander is not None,
        alexander=alexander,
    )


def standard_presentation(p: int, q: int) -> Presentation:
    """Two-generator presentation <x, y | x^p y^q> of the (p, q) torus
    knot group (relator-product convention)."""
    TorusKnotParams(p, q)  # validates coprimality and ranges
    return Presentation(("x", "y"), [_gen("x", p) * _gen("y", q)])


def double_presentation(p: int) -> tuple[Presentation, Word]:
    """The knot group of the doubled knot, plus the doubled seam word.

    Two Wirtinger-presented copies (generators z, a1..ap and w, b1..bp)
    are glued along a sphere meeting the knot twice, so the two meridians
    a1 and b1 are identified; the relator a1 b1^-1 carries that gluing.
    The returned word is [a1, a1..ap] * [b1, b1..bp]^-1.
    """
    if p < 2:
        raise InvalidP(f"need p >= 2, got {p}")
    gens = (
        ("z",)
        + tuple(f"a{i}" for i in range(1, p + 1))
        + ("w",)
        + tuple(f"b{i}" for i in range(1, p + 1))
    )
    relators = (
        _wirtinger_relators("z", "a", p)
        + _wirtinger_relators("w", "b", p)
        + [_gen("a1") * _gen("b1", -1)]
    )
    word = tau_word(p) * commutator(_gen("b1"), _strand_product("b", p)).inverse()
    return Presentation(gens, relators), word


def gamma_presentation(p: int) -> Presentation:
    """The four-generator quotient group of the doubled construction:

        <u, v, x, y | u^p v^(p+1), x^p y^(p+1), u v y^-1 x^-1, v u x^-1 y^-1>

    (equations uv = xy and vu = yx written as relators).
    """
    if p < 1:
        raise InvalidP(f"need p >= 1, got {p}")
    u, v, x, y = (_gen(n) for n in ("u", "v", "x", "y"))
    relators = [
        _gen("u", p) * _gen("v", p + 1),
        _gen("x", p) * _gen("y", p + 1),
        u * v * y.inverse() * x.inverse(),
        v * u * x.inverse() * y.inverse(),
    ]
    return Presentation(("u", "v", "x", "y"), relators)


def fold_images() -> dict[str, Word]:
    """The fold u -> x, v -> y, x -> x, y -> y collapsing the two halves
    of gamma_presentation onto the torus knot group <x, y | x^p y^(p+1)>."""
    return {
        "u": _gen("x"),
        "v": _gen("y"),
        "x": _gen("x"),
        "y": _gen("y"),
    }


def fold_report(p: int) -> HomomorphismReport:
    """verify_homomorphism for the fold of gamma_presentation(p) onto the
    (p, p+1) torus knot group; InvalidP for p < 2."""
    if p < 2:
        raise InvalidP(f"need p >= 2, got {p}")
    return verify_homomorphism(
        gamma_presentation(p), TorusKnotParams(p, p + 1), fold_images()
    )


def _tab_images(p: int) -> dict[str, Word]:
    # Inverting t = xy, a = t^p v, b = t^p y (and uv = xy for u):
    #   y = t^-p b,  v = t^-p a,  x = t b^-1 t^p,  u = t a^-1 t^p.
    t, a, b = _gen("t"), _gen("a"), _gen("b")
    return {
        "u": t * a.inverse() * _gen("t", p),
        "v": _gen("t", -p) * a,
        "x": t * b.inverse() * _gen("t", p),
        "y": _gen("t", -p) * b,
    }


def _tab_by_substitution(p: int) -> list[Word]:
    images = _tab_images(p)
    words = []
    for r in gamma_presentation(p).relators:
        img = r
        for g, rep in images.items():
            img = img.substitute(g, rep)
        words.append(img)
    if not words[2].is_identity():
        raise MismatchError(
            f"relator uv=xy should dissolve under the change of variables, got {words[2]}"
        )
    return [words[0].cyclically_reduced(), words[1].cyclically_reduced(),
            words[3].cyclically_reduced()]


def _tab_by_formula(p: int) -> list[Word]:
    def product_relator(letter: str) -> Word:
        # each factor t^e g^+-1 t^-e as three syllables, the whole product
        # reduced once
        syllables = []
        for k in range(p):
            e = k * (p + 1) + 1
            syllables += (("t", e), (letter, -1), ("t", -e))
        for k in range(p + 1):
            e = p * p - k * p
            syllables += (("t", e), (letter, 1), ("t", -e))
        return Word(syllables).cyclically_reduced()

    exchange = (
        _gen("a") * _gen("t") * _gen("a", -1) * _gen("t", -1)
        * _gen("t") * _gen("b") * _gen("t", -1) * _gen("b", -1)
    )
    return [product_relator("a"), product_relator("b"), exchange.cyclically_reduced()]


def gamma_tab_presentation(p: int) -> Presentation:
    """gamma_presentation(p) rewritten over t = xy, a = t^p v, b = t^p y:

        < t, a, b |  prod_k t^(k(p+1)+1) a^-1 t^-(k(p+1)+1)
                     * prod_k t^(p^2-kp) a t^-(p^2-kp),
                     (same with b),
                     a t a^-1 t^-1  t b t^-1 b^-1 >

    Built twice: once by substituting the inverted variable definitions
    into the four-generator relators, once literally from the conjugation
    exponent formulas; MismatchError if the routes disagree.
    """
    if p < 1:
        raise InvalidP(f"need p >= 1, got {p}")
    by_subst = _tab_by_substitution(p)
    by_formula = _tab_by_formula(p)
    if by_subst != by_formula:
        raise MismatchError(
            "substitution and closed-form routes disagree: "
            f"{by_subst} vs {by_formula}"
        )
    return Presentation(("t", "a", "b"), by_formula)


@dataclass(frozen=True)
class ConsistencyReport:
    p: int
    verified: bool
    steps: tuple[str, ...]


def derive_gamma_consistency(p: int) -> ConsistencyReport:
    """Reconcile the doubled picture with gamma_presentation mechanically.

    In the doubled group the two half meridians satisfy a1 = (xy)^-1 and
    b1 = (uv)^-1, so killing the doubled seam word [a1, y][b1, v]^-1 and
    identifying the meridians (uv = xy) must force the remaining relator
    vu = yx.  The check substitutes the meridian expressions, rewrites one
    uv -> xy occurrence, cyclically reduces, and compares the survivor
    with the relator v u x^-1 y^-1 up to cyclic permutation and inversion.
    The trace is p-independent because y and v are single generators here.
    """
    if p < 2:
        raise InvalidP(f"need p >= 2, got {p}")
    meridian_lhs = _gen("u") * _gen("v")
    meridian_rhs = _gen("x") * _gen("y")
    steps = []
    word = commutator(_gen("a1"), _gen("y")) * commutator(
        _gen("b1"), _gen("v")
    ).inverse()
    steps.append(f"seam word: {word}")
    word = word.substitute("a1", meridian_rhs.inverse())
    steps.append(f"substitute a1 = (x y)^-1: {word}")
    word = word.substitute("b1", meridian_lhs.inverse())
    steps.append(f"substitute b1 = (u v)^-1: {word}")
    rewritten = replace_subword(word, meridian_lhs, meridian_rhs)
    steps.append(f"rewrite one {meridian_lhs} -> {meridian_rhs}: {rewritten}")
    survivor = rewritten.cyclically_reduced()
    target = _gen("v") * _gen("u") * _gen("x", -1) * _gen("y", -1)
    verified = relator_equivalent(survivor, target)
    steps.append(
        f"cyclically reduced survivor {survivor} "
        f"{'matches' if verified else 'does not match'} relator {target} "
        "up to cyclic permutation and inversion"
    )
    return ConsistencyReport(p=p, verified=verified, steps=tuple(steps))


def _annihilator_binomials(p: int) -> dict[int, int]:
    """{a: s} with annihilator_poly(p) = prod (t^a - 1)^s, the closed form
    (t^(p(p+1)) - 1)(t - 1) / ((t^(p+1) - 1)(t^p - 1)); every s is 1 (the
    numerator's exponents, in that order) or -1 (the denominator's), and
    for p = 1, where the factors cancel, there are none."""
    if p == 1:
        return {}
    return {p * (p + 1): 1, 1: 1, p: -1, p + 1: -1}


def _times_binomials(f: LaurentPoly, exponents: Iterable[int]) -> LaurentPoly:
    """f * prod (t^a - 1) over exponents, one LaurentPoly.times_binomial
    pass of O(nnz) dict work per factor."""
    for a in exponents:
        f = f.times_binomial(a)
    return f


def annihilator_poly(p: int) -> LaurentPoly:
    """The polynomial annihilating each generator of the Alexander module
    of gamma_presentation(p); equals the Alexander polynomial of the
    (p, p+1) torus knot, canonical:

    sum_{k=0..p} t^(p^2-kp) - sum_{k=0..p-1} t^(k(p+1)+1)

    checked_annihilator_poly checks it against its closed form.
    """
    if p < 1:
        raise InvalidP(f"need p >= 1, got {p}")
    poly = LaurentPoly(
        [(p * p - k * p, 1) for k in range(p + 1)]
        + [(k * (p + 1) + 1, -1) for k in range(p)]
    )
    return poly.canonical()


def checked_annihilator_poly(p: int) -> LaurentPoly:
    """annihilator_poly(p), checked against its closed form
    (t^(p(p+1)) - 1)(t - 1) / ((t^(p+1) - 1)(t^p - 1)) by one sparse
    product: times both denominator binomials it must equal the
    numerator.  MismatchError if it does not."""
    poly, binomials = annihilator_poly(p), _annihilator_binomials(p)
    num = _times_binomials(LaurentPoly.one(), [a for a, s in binomials.items() if s > 0])
    if _times_binomials(poly, [a for a, s in binomials.items() if s < 0]) != num:
        raise MismatchError(f"annihilator_poly({p}) = {poly} is not the quotient {binomials}")
    return poly


def order_ideal(p: int) -> tuple[Matrix, tuple[LaurentPoly, ...]]:
    """The relation matrix of the Alexander module of gamma_presentation(p)
    and its order ideal.

    The module is <a, b | pp(t) a = 0, pp(t) b = 0, (1-t) a - (1-t) b = 0>
    over Z[t, t^-1] with pp = annihilator_poly(p); the relation matrix is
    3x2, one row per relation and the columns a, b.  The order ideal is the
    ideal of 2x2 minors of the relation matrix, generated by pp^2 and
    (t-1) pp; it is the unit ideal when p = 1, where pp is the constant 1.
    """
    if p < 1:
        raise InvalidP(f"need p >= 1, got {p}")
    pp = annihilator_poly(p)
    zero = LaurentPoly.zero()
    one_minus_t = LaurentPoly.one() - LaurentPoly.t_power(1)
    relations = Matrix(3, 2, [pp, zero, zero, pp, one_minus_t, -one_minus_t])
    return relations, elementary_ideal(relations, 0)


class DistinctnessCertificate(NamedTuple):
    """Exact divisibility facts separating the groups for p < k.

    cyclotomic mode (p >= 2): Phi = cyclotomic(k(k+1)) divides both order
    ideal generators for k, so a primitive k(k+1)-th root of unity kills
    everything in that ideal; Phi not dividing annihilator_poly(p) means
    (being irreducible) it misses pp_p^2, which lies in the other ideal.

    unit_ideal mode (p = 1): annihilator_poly(1) is the unit 1, so the
    p = 1 order ideal, which contains its square, is the whole ring, while
    the k ideal is proper, certified by the common cyclotomic divisor.

    divides_in_k and divides_in_p are read off the multiplicity of Phi in
    the annihilator polynomials as quotients of binomials
    (cyclotomic_multiplicity).  The record holds scalars only: Phi is
    cyclotomic(phi_index) and the two annihilators are annihilator_poly(p)
    and annihilator_poly(k), which the code that prints them builds, once
    per k or j; a text sweep builds none.
    """

    p: int
    k: int
    mode: str
    phi_index: int
    divides_in_k: bool
    divides_in_p: bool
    valid: bool


def _certificates(ps: Sequence[int], ks: Sequence[int]) -> Iterator[DistinctnessCertificate]:
    """Yield the certificate for every pair p < k with p in ps and k in ks,
    both ascending, in (p, k) order.

    Before the first is yielded, annihilator_poly(j) is built for each j
    in ps or ks, checked (checked_annihilator_poly, so a MismatchError
    comes before any output) and dropped; only the four exponents of each
    j are kept, so the memory held is O(len(ps) + len(ks)) however many
    pairs follow.  Every divisibility fact is then cyclotomic_multiplicity
    >= 1 on those exponents: divides_in_k once per k, the p = 1 unit-ideal
    fact once, and for each pair one sum over at most four exponents, with
    no polynomial division and no polynomial built.
    """
    binomials, p1_ideal_is_unit = {}, False
    for j in sorted({*ps, *ks}):
        poly, binomials[j] = checked_annihilator_poly(j), _annihilator_binomials(j)
        if j == 1:
            # The order ideal of p contains pp_p^2 (see order_ideal), so a
            # unit pp_1 makes the p = 1 ideal the whole ring.
            p1_ideal_is_unit = poly.is_unit()
    # phi is prime in Z[t] and, as k(k+1) >= 6, not +-(t-1), so it divides
    # both order ideal generators of k, poly_k^2 and (t-1)*poly_k, or neither.
    in_k = {k: cyclotomic_multiplicity(k * (k + 1), binomials[k]) >= 1 for k in ks}
    for p in ps:
        binomials_p = binomials[p]
        for k in ks:
            if k <= p:
                continue
            n, divides_in_k = k * (k + 1), in_k[k]
            divides_in_p = cyclotomic_multiplicity(n, binomials_p) >= 1
            # The one place the mode and validity rules live.
            if p >= 2:
                mode, valid = "cyclotomic", divides_in_k and not divides_in_p
            else:
                # phi is not a unit, so divides_in_k makes the order ideal of k proper
                mode, valid = "unit_ideal", p1_ideal_is_unit and divides_in_k
            yield DistinctnessCertificate(p, k, mode, n, divides_in_k, divides_in_p, valid)


def distinctness_certificate(p: int, k: int) -> DistinctnessCertificate:
    """The certificate separating the groups for the pair 1 <= p < k; a
    sweep over many pairs should use distinctness_certificates.

    >>> cert = distinctness_certificate(2, 3)
    >>> cert.mode, cert.phi_index, cert.divides_in_k, cert.divides_in_p, cert.valid
    ('cyclotomic', 12, True, False, True)
    """
    if p < 1 or p >= k:
        raise BadPair(f"need 1 <= p < k, got ({p}, {k})")
    return next(_certificates([p], [k]))


def iter_distinctness_certificates(lo: int, hi: int) -> Iterator[DistinctnessCertificate]:
    """distinctness_certificates(lo, hi) one at a time, holding O(hi - lo)
    memory; BadPair is raised by the call itself, and a MismatchError
    before the first certificate."""
    if lo < 1 or hi < lo:
        raise BadPair(f"need 1 <= min <= max, got ({lo}, {hi})")
    return _certificates(range(lo, hi), range(lo + 1, hi + 1))


def distinctness_certificates(lo: int, hi: int) -> list[DistinctnessCertificate]:
    """The certificates for every pair lo <= p < k <= hi, in (p, k) order,
    each equal to distinctness_certificate(p, k) and sharing the per-k and
    per-p work; BadPair unless 1 <= lo <= hi.

    >>> [(c.p, c.k, c.mode) for c in distinctness_certificates(1, 3)]
    [(1, 2, 'unit_ideal'), (1, 3, 'unit_ideal'), (2, 3, 'cyclotomic')]
    """
    return list(iter_distinctness_certificates(lo, hi))


@dataclass(frozen=True)
class GammaArtifacts:
    """Everything the pipeline derives for one parameter p, with the two
    Fox-calculus cross-checks: E1 of tab_presentation is the order ideal
    generator for generator, and the Alexander polynomial of presentation,
    the gcd of its E1 (fox_ideal_gamma, taken on each access as four 3x3
    determinants, one per row set, by first_elementary_ideal), is the
    annihilator polynomial."""

    p: int
    presentation: Presentation
    tab_presentation: Presentation
    degree_map: dict[str, int]
    p_poly: LaurentPoly
    module_relations: Matrix
    order_ideal: tuple[LaurentPoly, ...]
    fox_ideal_tab: tuple[LaurentPoly, ...]
    fox_tab_matches_order_ideal: bool
    fox_gamma_gcd_equals_annihilator: bool

    @property
    def fox_ideal_gamma(self) -> tuple[LaurentPoly, ...]:
        return first_elementary_ideal(self.presentation, self.degree_map)

    @property
    def ok(self) -> bool:
        return self.fox_tab_matches_order_ideal and self.fox_gamma_gcd_equals_annihilator


def gamma_artifacts(p: int) -> GammaArtifacts:
    """Bundle the group, its rewriting, the annihilator polynomial
    (checked against its closed form), the order ideal and the
    Fox-calculus cross-checks.  The tab E1 takes three 2x2 determinants,
    one per row set, by first_elementary_ideal (its columns a and b have
    degree 0); the gcd verdict reads the Alexander polynomial, with no 3x3
    determinant.  The four-generator presentation is abelianized once, for
    degree_map and the gcd."""
    poly = checked_annihilator_poly(p)
    relations, ideal = order_ideal(p)
    presentation = gamma_presentation(p)
    tab_presentation = gamma_tab_presentation(p)
    fox_tab = first_elementary_ideal(tab_presentation, abelianization(tab_presentation).degree_map)
    ab = abelianization(presentation)
    return GammaArtifacts(
        p=p,
        presentation=presentation,
        tab_presentation=tab_presentation,
        degree_map=ab.degree_map,
        p_poly=poly,
        module_relations=relations,
        order_ideal=ideal,
        fox_ideal_tab=fox_tab,
        fox_tab_matches_order_ideal=set(fox_tab) == set(ideal),
        fox_gamma_gcd_equals_annihilator=_alexander_polynomial(presentation, ab) == poly,
    )
