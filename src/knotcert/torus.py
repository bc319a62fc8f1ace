"""Exact word problem for torus knot groups, and homomorphism checking.

The group <x, y | x^p = y^q> (p, q coprime, both >= 2) is a central
extension of the free product Z/p * Z/q by the infinite cyclic center
generated by c = x^p = y^q.  Every element is uniquely c^m * s where s is
an alternating product of x-syllables with exponent in [1, p-1] and
y-syllables with exponent in [1, q-1]; two words are equal in the group
iff their normal forms coincide.

The maps into the torus knot group are written against the
relator-product form <x, y | x^p y^q = 1>, which is isomorphic to the
amalgam form via y -> y^-1.  normal_form always works in the amalgam form
x^p = y^q.  verify_homomorphism and is_in_commutator_subgroup take
product-form words; verify_homomorphism transports them through
product_to_amalgam before taking normal forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .presentations import Presentation
from .words import ForeignGenerator, Word


class BadParams(ValueError):
    """Torus knot parameters must be coprime with p >= 1 and q >= 2
    (present --p 1 --form standard builds <x, y | x y^2>); normal_form and
    is_in_commutator_subgroup also need p >= 2 and q >= 2."""


@dataclass(frozen=True)
class TorusKnotParams:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 2:
            raise BadParams(f"need p >= 1 and q >= 2, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise BadParams(f"({self.p}, {self.q}) are not coprime")


@dataclass(frozen=True)
class TorusNF:
    """Normal form c^central * alternating syllables, c = x^p = y^q."""

    params: TorusKnotParams
    central_exponent: int
    syllables: tuple[tuple[str, int], ...]

    def is_trivial(self) -> bool:
        return self.central_exponent == 0 and not self.syllables

    def __str__(self) -> str:
        if self.is_trivial():
            return "trivial"
        parts = []
        if self.central_exponent:
            parts.append(
                "c" if self.central_exponent == 1 else f"c^{self.central_exponent}"
            )
        parts.extend(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)
        return " ".join(parts)


def normal_form(tk: TorusKnotParams, w: Word | Sequence[tuple[str, int]]) -> TorusNF:
    """Unique normal form of a word over {x, y} in <x, y | x^p = y^q>.

    w is a Word or any sequence of syllables, reduced or not.  Rewrites
    x^(+-p) and y^(+-q) to central powers, folds exponents into [1, p-1] /
    [1, q-1] with carries into the central exponent, and merges adjacent
    syllables, which also reduces freely, until the form alternates.
    """
    if tk.p < 2 or tk.q < 2:
        raise BadParams(f"word problem needs p, q >= 2, got ({tk.p}, {tk.q})")
    syllables = w.syllables if isinstance(w, Word) else w
    modulus = {"x": tk.p, "y": tk.q}
    central = 0
    stack: list[tuple[str, int]] = []
    for g, e in syllables:
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        try:
            m, r = divmod(e, modulus[g])
        except KeyError:
            foreign = sorted({h for h, _ in syllables} - modulus.keys())
            raise ForeignGenerator(f"word uses generator(s) {foreign}, not x, y") from None
        central += m
        if r:
            stack.append((g, r))
        # r == 0: the syllable became central; the stack stays alternating
    return TorusNF(params=tk, central_exponent=central, syllables=tuple(stack))


def product_to_amalgam(w: Word) -> Word:
    """Transport along the isomorphism <x,y | x^p y^q> -> <x,y | x^p = y^q>,
    x -> x, y -> y^-1."""
    return w.substitute("y", Word.gen("y", -1))


def apply_images(w: Word, images: Mapping[str, Word]) -> Word:
    """Substitute images for every generator of w and reduce."""
    out = Word.identity()
    for g, e in w.syllables:
        if g not in images:
            raise ForeignGenerator(f"no image supplied for generator {g!r}")
        out = out * (images[g] ** e)
    return out


@dataclass(frozen=True)
class RelatorCheck:
    relator: Word
    image: Word
    trivial: bool
    normal_form: TorusNF


@dataclass(frozen=True)
class HomomorphismReport:
    params: TorusKnotParams
    relator_checks: tuple[RelatorCheck, ...]
    hits_x: bool
    hits_y: bool

    @property
    def is_homomorphism(self) -> bool:
        return all(c.trivial for c in self.relator_checks)

    @property
    def surjective(self) -> bool:
        return self.is_homomorphism and self.hits_x and self.hits_y


def verify_homomorphism(
    source: Presentation,
    tk: TorusKnotParams,
    images: Mapping[str, Word],
) -> HomomorphismReport:
    """Certify a map from a presented group to a torus knot group.

    The images are words in <x,y | x^p y^q = 1>.  Each relator's image
    must have trivial normal form; that makes the assignment a
    homomorphism.  Surjectivity is established when the image set visibly
    contains elements equal to x and to y in the target.
    """
    missing = set(source.generators) - set(images)
    if missing:
        raise ForeignGenerator(f"no image supplied for generator(s) {sorted(missing)}")
    checks = []
    for r in source.relators:
        img = apply_images(r, images)
        nf = normal_form(tk, product_to_amalgam(img))
        checks.append(
            RelatorCheck(relator=r, image=img, trivial=nf.is_trivial(), normal_form=nf)
        )

    def image_equals(target_word: Word) -> bool:
        goal = normal_form(tk, product_to_amalgam(target_word))
        return any(
            normal_form(tk, product_to_amalgam(apply_images(Word.gen(g), images))) == goal
            for g in source.generators
        )

    return HomomorphismReport(
        params=tk,
        relator_checks=tuple(checks),
        hits_x=image_equals(Word.gen("x")),
        hits_y=image_equals(Word.gen("y")),
    )


def is_in_commutator_subgroup(tk: TorusKnotParams, w: Word) -> bool:
    """True iff w dies in the abelianization of the torus knot group.

    The abelianization is Z; for the relator-product presentation
    <x,y | x^p y^q = 1> the degree map is {x: q, y: -p}, and Word.degree
    raises ForeignGenerator on any generator other than x and y.
    """
    if tk.p < 2 or tk.q < 2:
        raise BadParams(f"need p, q >= 2, got ({tk.p}, {tk.q})")
    return w.degree({"x": tk.q, "y": -tk.p}) == 0


def wirtinger_standard_images(p: int) -> dict[str, Word]:
    """A generator dictionary from the Wirtinger-style presentation of the
    (p, p+1) torus knot onto <x, y | x^p y^(p+1) = 1>.

    z -> x and a_k -> x^-(k-1) (x y) x^(k-1), so each meridian image has
    weighted degree +1 under {x: p+1, y: -p}; the dictionary is
    machine-verified by verify_homomorphism in the test suite.
    """
    if p < 2:
        raise BadParams(f"need p >= 2, got {p}")
    images = {"z": Word.gen("x")}
    a1 = Word.gen("x") * Word.gen("y")
    for k in range(1, p + 1):
        shift = Word.gen("x", -(k - 1))
        images[f"a{k}"] = shift * a1 * shift.inverse()
    return images
