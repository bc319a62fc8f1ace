import pytest

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
