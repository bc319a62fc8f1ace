import random

from knotcert.words import Word, _reduce, commutator, relator_equivalent, replace_subword


def W(*syllables):
    return Word(syllables)


def random_raw(rng, gens, length):
    return [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(length)]


def test_cancellation():
    assert W(("x", 1), ("y", 1), ("y", -1), ("x", -1)).is_identity()


def test_merge():
    assert W(("x", 2), ("x", 3)) == W(("x", 5))


def test_already_reduced():
    w = W(("a1", 1), ("y", 1), ("a1", -1), ("y", -1))
    assert w.syllables == (("a1", 1), ("y", 1), ("a1", -1), ("y", -1))


def test_reduce_idempotent_and_inverse_random():
    rng = random.Random(7)
    gens = ["a", "b", "c"]
    for _ in range(1000):
        raw = random_raw(rng, gens, rng.randint(0, 60))
        w = Word(raw)
        assert Word(w.syllables) == w
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()


def test_pow():
    x = Word.gen("x")
    assert x ** 3 == W(("x", 3))
    assert x ** -2 == W(("x", -2))
    assert (x ** 0).is_identity()
    xy = Word.gen("x") * Word.gen("y")
    assert xy ** 2 == W(("x", 1), ("y", 1), ("x", 1), ("y", 1))
    assert xy ** -1 == W(("y", -1), ("x", -1))


def test_one_syllable_pow_is_one_syllable():
    assert Word.gen("x", 3) ** 10**9 == Word.gen("x", 3 * 10**9)
    assert Word.gen("x", -2) ** -(10**12) == Word.gen("x", 2 * 10**12)
    for e in (-3, -1, 1, 2):
        for n in range(-4, 5):
            base = Word.gen("x", e) if n >= 0 else Word.gen("x", -e)
            assert Word.gen("x", e) ** n == Word(base.syllables * abs(n)), (e, n)


def test_substitute_simple():
    w = Word.gen("x") * Word.gen("y")
    assert w.substitute("x", Word.gen("u") * Word.gen("v")) == W(
        ("u", 1), ("v", 1), ("y", 1)
    )


def test_substitute_self_is_identity_map():
    g = Word.gen("g")
    assert g.substitute("g", g) == g


def test_substitute_negative_exponent():
    w = W(("x", -2), ("y", 1))
    r = Word.gen("u") * Word.gen("v")
    assert w.substitute("x", r) == W(
        ("v", -1), ("u", -1), ("v", -1), ("u", -1), ("y", 1)
    )


def test_exponent_sums_and_degree():
    w = W(("x", 2), ("y", -3), ("x", 1))
    assert w.exponent_sums() == {"x": 3, "y": -3}
    assert w.degree({"x": 1, "y": 1}) == 0
    assert w.degree({"x": 3, "y": 2}) == 3


def test_commutator_exponent_sums_vanish():
    a = Word.gen("a") * Word.gen("b", 2)
    b = Word.gen("c") * Word.gen("a", -1)
    assert commutator(a, b).exponent_sums() == {}


def test_cyclic_reduction():
    w = W(("x", 1), ("y", 1), ("x", -1))
    assert w.cyclically_reduced() == Word.gen("y")
    w = W(("x", 2), ("y", 1), ("x", -2))
    assert w.cyclically_reduced() == Word.gen("y")
    w = W(("x", 2), ("y", 1), ("x", -1))
    assert w.cyclically_reduced() == W(("x", 1), ("y", 1))
    assert W(("x", 3)).cyclically_reduced() == W(("x", 3))
    assert Word.identity().cyclically_reduced().is_identity()


def test_relator_equivalent():
    r = W(("z", 1), ("a", 1), ("z", -1), ("b", -1))
    # cyclic permutation
    assert relator_equivalent(r, W(("a", 1), ("z", -1), ("b", -1), ("z", 1)))
    # inversion
    assert relator_equivalent(r, r.inverse())
    # conjugates are equivalent after cyclic reduction
    assert relator_equivalent(r, Word.gen("q") * r * Word.gen("q", -1))
    assert not relator_equivalent(r, W(("z", 1), ("a", 1), ("z", -1), ("b", 1)))
    assert relator_equivalent(Word.identity(), Word.identity())


def test_replace_subword():
    w = W(("y", -1), ("x", -1), ("y", 1), ("x", 1), ("u", -1), ("v", -1), ("u", 1), ("v", 1))
    pat = Word.gen("u") * Word.gen("v")
    rep = Word.gen("x") * Word.gen("y")
    got = replace_subword(w, pat, rep)
    assert got == W(
        ("y", -1), ("x", -1), ("y", 1), ("x", 1), ("u", -1), ("v", -1), ("x", 1), ("y", 1)
    )
    # inverse occurrence rewrites with the inverse replacement
    w2 = W(("v", -1), ("u", -1), ("a", 1))
    assert replace_subword(w2, pat, rep) == W(("y", -1), ("x", -1), ("a", 1))
    assert replace_subword(Word.gen("a"), pat, rep) is None


def test_str_tokens():
    assert str(W(("a1", 2), ("z", -1), ("a2", 1))) == "a1^2 z^-1 a2"
    assert str(Word.identity()) == ""


def letterwise_reduce(raw):
    """Free reduction one letter at a time: spell every syllable out as
    letters, cancel x x^-1 pairs on a stack, then group equal letters."""
    letters = []
    for g, e in raw:
        for _ in range(abs(e)):
            step = 1 if e > 0 else -1
            if letters and letters[-1] == (g, -step):
                letters.pop()
            else:
                letters.append((g, step))
    out = []
    for g, s in letters:
        if out and out[-1][0] == g:
            out[-1][1] += s
        else:
            out.append([g, s])
    return tuple((g, e) for g, e in out)


def test_reduce_matches_letterwise_reduction():
    rng = random.Random(13)
    for _ in range(2000):
        raw = random_raw(rng, ["a", "b"], rng.randint(0, 40))
        raw += [(rng.choice("ab"), 0)] * rng.randint(0, 2)
        rng.shuffle(raw)
        assert _reduce(raw) == letterwise_reduce(raw)
        assert all(type(s) is tuple for s in _reduce(raw))


def test_product_matches_reducing_the_concatenation():
    rng = random.Random(17)
    for _ in range(2000):
        a = Word(random_raw(rng, ["a", "b", "c"], rng.randint(0, 12)))
        c = Word(random_raw(rng, ["a", "b"], rng.randint(0, 4)))
        # b cancels a partly, wholly, or not at all at the seam
        b = rng.choice((a.inverse() * c, c, a.inverse(), Word(a.syllables[-2:]).inverse() * c))
        for u, v in ((a, b), (b, a), (a, a), (c, b)):
            got = u * v
            assert got.syllables == Word(u.syllables + v.syllables).syllables
            assert got.inverse().syllables == Word(
                [(g, -e) for g, e in reversed(got.syllables)]
            ).syllables
