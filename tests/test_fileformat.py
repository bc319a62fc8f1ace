import io
import random
import re
import time
import tracemalloc

import pytest

from knotcert import cli, fileformat
from knotcert.constructions import (
    double_presentation,
    gamma_presentation,
    gamma_tab_presentation,
    standard_presentation,
    torus_wirtinger,
)
from knotcert.fileformat import (
    PresentationSyntaxError,
    UnknownGenerator,
    ZeroExponent,
    parse_presentation,
    parse_word,
    presentation_to_text,
)
from knotcert.presentations import Presentation
from knotcert.torus import TorusKnotParams, normal_form
from knotcert.words import Word


def test_basic_parse():
    P = parse_presentation("gens: x y\nrel: x^2 y^3\n")
    assert P.generators == ("x", "y")
    assert P.relators == (Word([("x", 2), ("y", 3)]),)


def test_free_group():
    P = parse_presentation("gens: x\n")
    assert P.generators == ("x",)
    assert P.relators == ()


def test_relator_before_gens():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rel: x\n")


def test_missing_gens():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("")


def test_duplicate_gens_line():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x\ngens: y\n")


def test_duplicate_generator_name():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x x\n")


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens: x\nrel: y\n")


def test_zero_exponent():
    with pytest.raises(ZeroExponent):
        parse_presentation("gens: x\nrel: x^0\n")


def test_bad_token_and_position():
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation("gens: x\nrel: x^\n")
    assert info.value.line == 2
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x\nbogus: x\n")


def test_negative_exponents_parse():
    P = parse_presentation("gens: z a1\nrel: z a1^-3 z^-1\n")
    assert P.relators[0] == Word([("a1", -3)])  # stored cyclically reduced


def test_blank_lines_ignored():
    P = parse_presentation("\ngens: x y\n\nrel: x y^-1\n\n")
    assert len(P.relators) == 1


def test_parse_word_restricted():
    w = parse_word("x^2 y^-3", {"x", "y"})
    assert w == Word([("x", 2), ("y", -3)])
    with pytest.raises(UnknownGenerator):
        parse_word("z", {"x", "y"})


def test_round_trip_generated_presentations():
    presentations = []
    for p in range(2, 9):
        presentations.append(torus_wirtinger(p))
        presentations.append(standard_presentation(p, p + 1))
        presentations.append(double_presentation(p)[0])
    for p in range(1, 9):
        presentations.append(gamma_presentation(p))
        presentations.append(gamma_tab_presentation(p))
    for P in presentations:
        text = presentation_to_text(P)
        reparsed = parse_presentation(text)
        assert reparsed.generators == P.generators
        assert reparsed.relators == P.relators
        assert presentation_to_text(reparsed) == text


def test_every_accepted_name_round_trips():
    # Names drawn from ASCII name characters and from characters isalnum()
    # accepts outside ASCII (superscript two, alpha, Arabic-Indic three,
    # sharp s, fullwidth A); every name Presentation takes must come back
    # from its own file text.
    rng = random.Random(13)
    pool = "aZ09_" + "\u00b2\u03b1\u0663\u00df\uff21"
    accepted = rejected = 0
    for _ in range(400):
        name = "".join(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        try:
            P = Presentation((name, "y"), [Word([(name, 2), ("y", -3)])])
        except ValueError:
            rejected += 1
            continue
        accepted += 1
        text = presentation_to_text(P)
        assert parse_presentation(text) == P, text
    assert accepted and rejected


def test_printer_format():
    P = torus_wirtinger(2)
    assert presentation_to_text(P) == (
        "gens: z a1 a2\n"
        "rel: z a1^-1 a2^-1 a1^-1\n"
        "rel: z a1 z^-1 a2^-1\n"
        "rel: z a2 z^-1 a1^-1\n"
    )


def test_indented_lines():
    for indent in ("  ", "\t", " \t "):
        P = parse_presentation(f"{indent}gens: x y\n{indent}rel: x^2 y^-3\n")
        assert P.generators == ("x", "y")
        assert P.relators == (Word([("x", 2), ("y", -3)]),)


def test_columns_count_from_the_raw_line():
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation("gens: x\n\t rel: x ^2\n")
    assert (info.value.line, info.value.column) == (2, 10)
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation("  gens: x y-\n")
    assert (info.value.line, info.value.column) == (1, 11)
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation("gens: x\nrel: x^\n")
    assert info.value.column == 6


def test_huge_exponent_is_a_located_syntax_error():
    for token in ("x^" + "7" * 5000, "x^" + "0" * 5000, "x^-" + "0" * 4999 + "1"):
        for text in (token, "y " + token, "y\t" + token + " y^01"):
            with pytest.raises(PresentationSyntaxError) as info:
                parse_word(text, {"x", "y"}, line=4)
            assert (info.value.line, info.value.column) == (4, text.index("x") + 1)
            assert "too many digits (5000)" in str(info.value)
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation(f"gens: x y\nrel: y x\n  rel: {token}\n")
        assert (info.value.line, info.value.column) == (3, 8)
    # an unknown name before the long exponent is still reported first
    with pytest.raises(UnknownGenerator):
        parse_word("z x^" + "9" * 5000, {"x", "y"})


def test_many_generators_parse_in_linear_time():
    rng = random.Random(20000)
    gens = [f"g{i}" for i in range(20000)]
    text = "gens: " + " ".join(gens) + "\n" + "".join(
        "rel: " + " ".join(f"{rng.choice(gens)}^{rng.randint(1, 5)}" for _ in range(5)) + "\n"
        for _ in range(2000)
    )
    start = time.perf_counter()
    P = parse_presentation(text)
    assert time.perf_counter() - start < 1.0
    assert len(P.generators) == 20000
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation("gens: " + " ".join(gens) + " g7 g-\n")
    assert "duplicate generator 'g7'" in str(info.value)


def test_long_invalid_word_is_rejected_in_linear_time():
    text = "x" * 10**6 + "!"
    start = time.perf_counter()
    with pytest.raises(PresentationSyntaxError) as info:
        parse_word(text, {"x", "y"})
    assert time.perf_counter() - start < 1.0
    assert info.value.column == 1


def _parse_cost(text, traced):
    """(error or None, seconds, tracemalloc peak or None) of one parse_word(text, {"x"})."""
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    try:
        parse_word(text, {"x"})
        error = None
    except PresentationSyntaxError as exc:
        error = exc
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] if traced else None
    tracemalloc.stop()
    return error, elapsed, peak


def test_late_bad_token_costs_less_than_the_word(monkeypatch):
    # The error path reuses the split tokens and the one findall over the
    # distinct tokens, and hands only the bad token to the per-token
    # parser; it must not walk or list the syllables before it.  Time and
    # tracemalloc peak are bounded relative to accepting the same word
    # without the bad token (measured ratios about 0.9 and 0.5; listing
    # every earlier token with its column gave 1.4-2.1 and 1.25, and
    # building the syllable list before the check gave a peak of 1.0).
    parsed = []
    real_parse_token = fileformat._parse_token

    def counting_parse_token(token, line, column):
        parsed.append(token)
        return real_parse_token(token, line, column)

    monkeypatch.setattr(fileformat, "_parse_token", counting_parse_token)
    word = "x " * 100000
    error, _, _ = _parse_cost(word + "!", traced=False)
    assert str(error) == "line 1, column 200001: bad token '!'"
    assert error.column == 200001
    assert parsed == ["!"]
    ok_time = min(_parse_cost(word, traced=False)[1] for _ in range(3))
    bad_time = min(_parse_cost(word + "!", traced=False)[1] for _ in range(3))
    assert bad_time < 2 * ok_time, (bad_time, ok_time)
    small = "x " * 50000
    ok_peak, bad_peak = _parse_cost(small, traced=True)[2], _parse_cost(small + "!", traced=True)[2]
    assert bad_peak < 0.8 * ok_peak, (bad_peak, ok_peak)


@pytest.mark.parametrize(
    "last, message",
    [
        ("z", "line 1: unknown generator 'z'"),
        ("x^" + "7" * 5000, "line 1, column 200001: exponent of 'x' has too many digits (5000)"),
    ],
    ids=["unknown-name", "long-exponent"],
)
def test_late_unknown_name_or_long_exponent_costs_less_than_the_word(monkeypatch, last, message):
    # A well-formed token that names an unknown generator or has an
    # exponent too long for int() is found from the findall over the
    # distinct tokens too: only it reaches the per-token parser, and
    # rejecting the word costs less than twice accepting it without that
    # token.
    parsed = []
    real_parse_token = fileformat._parse_token

    def counting_parse_token(token, line, column):
        parsed.append(token)
        return real_parse_token(token, line, column)

    monkeypatch.setattr(fileformat, "_parse_token", counting_parse_token)
    word = "x " * 100000

    def cost(text):
        start = time.perf_counter()
        try:
            parse_word(text, {"x"})
        except (PresentationSyntaxError, UnknownGenerator) as exc:
            assert str(exc) == message
        return time.perf_counter() - start

    cost(word + last)
    assert parsed == [last]
    ok_time = min(cost(word) for _ in range(3))
    bad_time = min(cost(word + last) for _ in range(3))
    assert bad_time < 2 * ok_time, (bad_time, ok_time)


# The parser as it was before the bulk path: every token goes through a
# regex, a partition, two more regex matches and an int.  Kept as the
# oracle for parse_word's results and for its errors and their columns.
def _per_token_parse_word(text, generators=None, line=1):
    syllables = []
    for m in re.finditer(r"\S+", text):
        token, col = m.group(), m.start() + 1
        name, sep, exp_text = token.partition("^")
        if not re.match(r"^[A-Za-z0-9_]+$", name):
            raise PresentationSyntaxError(f"bad token {token!r}", line, col)
        exp = 1
        if sep:
            if not re.match(r"^-?[0-9]+$", exp_text):
                raise PresentationSyntaxError(f"bad exponent in {token!r}", line, col)
            exp = int(exp_text)
            if exp == 0:
                raise ZeroExponent(f"line {line}: token {token!r} has exponent 0")
        if generators is not None and name not in generators:
            raise UnknownGenerator(f"line {line}: unknown generator {name!r}")
        syllables.append((name, exp))
    return Word(syllables)


def _outcome(parse, text, generators):
    try:
        return ("ok", parse(text, generators, line=3).syllables)
    except (PresentationSyntaxError, UnknownGenerator, ZeroExponent) as exc:
        return (type(exc), str(exc), getattr(exc, "column", None))


FUZZ_PIECES = (
    "x", "y", "z", "a1", "_", "^", "-", "0", "00", "1", "7", "12", " ", "  ",
    "\t", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\xa0", "\u3000", "\u200b",
    "\u0663", "\xe9", "!", "+", "-00", "x^", "^2", "x^2^3", "x z z^-1", "x^-1",
    "y^3", "x^007", "y^-0",
)


def test_bulk_parse_word_matches_the_per_token_parser():
    rng = random.Random(11)
    cases = ["", " ", "x", "x z z^-1", "x^2^3", "^2", "x^", "x^-00", "x\x1cy", "x^\u0663"]
    for _ in range(6000):
        cases.append("".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(1, 12))))
    for _ in range(300):
        tokens = [rng.choice("xy") + rng.choice(("", "^2", "^-1", "^-03")) for _ in range(60)]
        tokens[rng.randrange(60)] = rng.choice(FUZZ_PIECES)
        cases.append(rng.choice((" ", "\t ", "\x1c")).join(tokens))
    for text in cases:
        for generators in (None, {"x", "y"}):
            assert _outcome(parse_word, text, generators) == _outcome(
                _per_token_parse_word, text, generators
            ), text


def test_str_split_cuts_where_the_regex_does():
    # parse_syllables splits with str.split(), and its error path locates
    # a token with re.finditer(r"\S+"); they cut at the same characters
    # because str.isspace() and the regex \s accept the same code points.
    space = re.compile(r"\s").match
    assert [c for c in range(0x110000) if chr(c).isspace() != bool(space(chr(c)))] == []


def _file_outcome(parse, text):
    try:
        return ("ok", parse(text).relators)
    except (PresentationSyntaxError, UnknownGenerator, ZeroExponent) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def _per_line_parse_presentation(text):
    # Each relator line parsed on its own, with no token map shared between
    # lines.  The files below have gens: on line 1 and rel: on every other.
    lines = text.splitlines()
    generators = lines[0].split()[1:]
    relators = [
        parse_word(raw.replace("rel:", "    ", 1), set(generators), line=lineno)
        for lineno, raw in enumerate(lines[1:], start=2)
    ]
    return Presentation(generators, relators)


def test_shared_token_map_matches_parsing_each_line_alone():
    rng = random.Random(12)
    # Pieces that splitlines() cuts at stay out, so that each rel: line of
    # a file is one line.
    pieces = [p for p in FUZZ_PIECES if len(("a" + p + "a").splitlines()) == 1]
    clean = ["x", "y", "a1", "x^-1", "y^3", "x^007", "a1^-2", "y^-1"]
    files = [
        "gens: x y a1\nrel: x y\nrel: y x!\nrel: x!\n",
        "gens: x y a1\nrel: x y^3\nrel: x^2^3 y\nrel: y x^2^3\n",
        "gens: x y a1\nrel: x z\nrel: z\nrel: x^0\n",
        "gens: x y a1\nrel: x^-00 y\nrel: y^3 x^-00\n",
    ]
    for _ in range(1500):
        lines = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.6:
                lines.append(" ".join(rng.choice(clean) for _ in range(rng.randint(0, 8))))
            else:
                lines.append("".join(rng.choice(pieces) for _ in range(rng.randint(1, 12))))
        gens = rng.choice(("x y a1", "x y z", "a1 y"))
        files.append(f"gens: {gens}\n" + "".join(f"rel: {line}\n" for line in lines))
    outcomes = set()
    for text in files:
        got = _file_outcome(parse_presentation, text)
        assert got == _file_outcome(_per_line_parse_presentation, text), text
        outcomes.add(got[0])
    assert outcomes == {"ok", PresentationSyntaxError, UnknownGenerator, ZeroExponent}
    # a bad token repeated on several lines is reported on the first
    assert _file_outcome(parse_presentation, files[0])[2:] == (3, 8)
    assert _file_outcome(parse_presentation, files[1])[2:] == (3, 6)
    assert "line 2: unknown generator 'z'" in _file_outcome(parse_presentation, files[2])[1]
    assert "line 2: token 'x^-00'" in _file_outcome(parse_presentation, files[3])[1]


def test_wp_checks_each_distinct_token_once(monkeypatch):
    rng = random.Random(3000)
    text = " ".join(
        g if e == 1 else f"{g}^{e}"
        for g, e in (("xy"[i % 2], rng.choice((-1, 1)) * rng.randint(1, 7)) for i in range(3000))
    )
    checked = []
    real = fileformat._TOKEN_RE

    class Spy:
        def findall(self, joined):
            checked.extend(joined.split())
            return real.findall(joined)

    monkeypatch.setattr(fileformat, "_TOKEN_RE", Spy())
    out = io.StringIO()
    assert cli.run(["wp", "--p", "3", "--q", "5", "--word", text], out) == 0
    distinct = list(dict.fromkeys(text.split()))
    assert checked == distinct and len(distinct) == 28
    monkeypatch.undo()
    want = normal_form(TorusKnotParams(3, 5), _per_token_parse_word(text, {"x", "y"}))
    assert out.getvalue() == f"{want}\n"
