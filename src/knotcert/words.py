"""Freely reduced words in a free group.

A word is a sequence of syllables (generator name, nonzero exponent) in
which adjacent syllables never share a generator.  The empty word is the
identity.  Words are immutable and hashable, so they can serve as group
ring keys.

Seam invariant: the syllables of a Word are always freely reduced, so in
a product u * v the only cancellation or merge happens where the last
syllables of u meet the first syllables of v.  ``__mul__`` and
``inverse`` rely on it and build their results without reducing again.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class ForeignGenerator(ValueError):
    """A word mentions a generator outside the ambient generating set."""


def _reduce(syllables: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    stack: list[tuple[str, int]] = []
    push, pop = stack.append, stack.pop
    for gen, exp in syllables:
        if not exp:
            continue
        if stack and stack[-1][0] == gen:
            exp += pop()[1]
            if exp:
                push((gen, exp))
        else:
            push((gen, exp))
    return tuple(stack)


class Word:
    """A freely reduced word.  The constructor reduces its input.

    >>> w = Word([("x", 1), ("y", 2), ("y", -2), ("x", 3)])
    >>> str(w)
    'x^4'
    >>> (w * w.inverse()).is_identity()
    True
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[tuple[str, int]] = ()):
        object.__setattr__(self, "syllables", _reduce(syllables))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _from_reduced(cls, syllables: tuple[tuple[str, int], ...]) -> "Word":
        """Wrap a tuple of syllables that is already freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "syllables", syllables)
        return w

    @classmethod
    def identity(cls) -> "Word":
        return cls()

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        return cls([(name, exp)])

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.syllables, other.syllables
        i, j = len(a), 0
        # Both factors are reduced: cancel whole syllables at the seam until
        # its two sides name different generators or merge to a nonzero power.
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            exp = a[i - 1][1] + b[j][1]
            if exp:
                return Word._from_reduced(a[: i - 1] + ((b[j][0], exp),) + b[j + 1 :])
            i -= 1
            j += 1
        return Word._from_reduced(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._from_reduced(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if len(self.syllables) == 1:  # (g^e)^n is one syllable for any n
            ((g, e),) = self.syllables
            return Word.gen(g, e * n)
        base = self if n >= 0 else self.inverse()
        return Word(base.syllables * abs(n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def length(self) -> int:
        """Total letter count."""
        return sum(abs(e) for _, e in self.syllables)

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def letters(self) -> list[tuple[str, int]]:
        """The word spelled out as single letters (gen, +1 or -1)."""
        out = []
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            out.extend([(g, step)] * abs(e))
        return out

    def exponent_sums(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g, e in self.syllables:
            out[g] = out.get(g, 0) + e
        return {g: e for g, e in out.items() if e}

    def degree(self, degree_map: Mapping[str, int]) -> int:
        """Weighted exponent sum; raises ForeignGenerator on unmapped names."""
        total = 0
        for g, e in self.syllables:
            if g not in degree_map:
                raise ForeignGenerator(f"generator {g!r} has no assigned degree")
            total += e * degree_map[g]
        return total

    def substitute(self, gen: str, replacement: "Word") -> "Word":
        """Replace every occurrence of gen^e by replacement^e, then reduce."""
        parts: list[tuple[str, int]] = []
        for g, e in self.syllables:
            if g == gen:
                parts.extend((replacement ** e).syllables)
            else:
                parts.append((g, e))
        return Word(parts)

    def cyclically_reduced(self) -> "Word":
        """Strip matched inverse letters from the two ends."""
        syl = list(self.syllables)
        while len(syl) > 1 and syl[0][0] == syl[-1][0]:
            g = syl[0][0]
            e0, e1 = syl[0][1], syl[-1][1]
            if (e0 > 0) == (e1 > 0):
                break
            drop = min(abs(e0), abs(e1))
            e0 -= drop * (1 if e0 > 0 else -1)
            e1 -= drop * (1 if e1 > 0 else -1)
            syl[0] = (g, e0)
            syl[-1] = (g, e1)
            syl = [(g, e) for g, e in syl if e]
        return Word(syl)

    def __str__(self) -> str:
        return " ".join(
            g if e == 1 else f"{g}^{e}" for g, e in self.syllables
        )

    def __repr__(self) -> str:
        return f"Word('{self}')"


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def _rotations(letters: list[tuple[str, int]]):
    n = len(letters)
    for k in range(n):
        yield letters[k:] + letters[:k]


def relator_equivalent(u: Word, v: Word) -> bool:
    """Equality of relators: up to cyclic permutation and inversion."""
    lu = u.cyclically_reduced().letters()
    lv = v.cyclically_reduced().letters()
    if len(lu) != len(lv):
        return False
    if not lu:
        return True
    lv_inv = [(g, -s) for g, s in reversed(lv)]
    return any(rot == lu for rot in _rotations(lv)) or any(
        rot == lu for rot in _rotations(lv_inv)
    )


def replace_subword(w: Word, pattern: Word, replacement: Word) -> Word | None:
    """Rewrite the first occurrence of pattern (or of its inverse, by the
    inverse replacement) inside w, scanning letters left to right; returns
    None when neither occurs.  The result is freely reduced.
    """
    letters = w.letters()
    for pat, rep in (
        (pattern.letters(), replacement),
        (pattern.inverse().letters(), replacement.inverse()),
    ):
        n = len(pat)
        if n == 0:
            continue
        for i in range(len(letters) - n + 1):
            if letters[i : i + n] == pat:
                return Word(letters[:i] + rep.letters() + letters[i + n :])
    return None
