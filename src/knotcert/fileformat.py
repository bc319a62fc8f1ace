"""Plain-text presentation files and word tokens.

Grammar (UTF-8, one declaration per line):

    gens: g1 g2 ...
    rel: tok tok ...
    rel: ...

where a token is ``name`` or ``name^k`` with k a nonzero integer and a
name is made of ASCII letters, digits and underscores.  An exponent with
more digits than the interpreter converts to an int
(``sys.get_int_max_str_digits()``, 4300 by default) is a syntax error,
leading zeros included.  The ``gens:`` line
comes first and appears exactly once; blank lines and leading whitespace
are ignored.  Printing a parsed canonical file reproduces it byte for
byte.
"""

from __future__ import annotations

import re
from itertools import islice

from .presentations import NAME_PATTERN, Presentation
from .words import Word

_NAME_RE = re.compile(NAME_PATTERN)
_INT_RE = re.compile(r"^-?[0-9]+$")
# Every whole whitespace-delimited token, as (name, digits of k or "", "")
# when it is ``name`` or ``name^k`` with k nonzero, and as ("", "", token)
# when it is malformed; parse_syllables runs it over the distinct tokens of
# a word, joined by spaces.  Matching token by token keeps no SRE state
# across tokens, where a fullmatch of a repeated group would grow its
# backtracking stack with the word, and possessive repeats need Python 3.11.
_TOKEN_RE = re.compile(
    rf"(?<!\S)(?:({NAME_PATTERN})(?:\^(-?0*[1-9][0-9]*))?(?!\S)|(\S+))"
)


class PresentationSyntaxError(ValueError):
    """Malformed presentation text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownGenerator(ValueError):
    """A relator token names a generator missing from the gens: line."""


class ZeroExponent(ValueError):
    """Word tokens must carry nonzero exponents."""


def _parse_token(token: str, line: int, column: int) -> tuple[str, int]:
    name, sep, exp_text = token.partition("^")
    if not _NAME_RE.fullmatch(name):
        raise PresentationSyntaxError(f"bad token {token!r}", line, column)
    if not sep:
        return name, 1
    if not _INT_RE.match(exp_text):
        raise PresentationSyntaxError(f"bad exponent in {token!r}", line, column)
    try:
        exp = int(exp_text)
    except ValueError:
        raise PresentationSyntaxError(
            f"exponent of {name!r} has too many digits ({len(exp_text.lstrip('-'))})",
            line,
            column,
        ) from None
    if exp == 0:
        raise ZeroExponent(f"line {line}: token {token!r} has exponent 0")
    return name, exp


def _tokens_with_columns(text_line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text_line)]


def parse_syllables(
    text: str, generators: set[str] | None = None, line: int = 1, _seen=None
) -> list[tuple[str, int]]:
    """Parse whitespace-separated word tokens into unreduced syllables.

    One findall checks each distinct token of text.split() once, and each
    exponent is converted once; the list is built only if all pass.
    Otherwise the first offending token, malformed, naming an unknown
    generator or with an exponent too long for int(), is the only one
    handed to the per-token parser, and its error is raised with its
    column.  _seen, shared by the relator lines of a file, maps the tokens
    already accepted against the same generators to their syllables.
    """
    tokens = text.split()
    seen = {} if _seen is None else _seen
    new = [t for t in dict.fromkeys(tokens) if t not in seen]
    for token, (name, exp, malformed) in zip(new, _TOKEN_RE.findall(" ".join(new))):
        if malformed or (generators is not None and name not in generators):
            break
        try:
            seen[token] = (name, int(exp) if exp else 1)
        except ValueError:  # an exponent too long for int()
            break
    else:
        return list(map(seen.__getitem__, tokens))
    m = next(islice(re.finditer(r"\S+", text), tokens.index(token), None))
    name, _ = _parse_token(m.group(), line, m.start() + 1)
    raise UnknownGenerator(f"line {line}: unknown generator {name!r}")


def parse_word(text: str, generators: set[str] | None = None, line: int = 1, _seen=None) -> Word:
    """The freely reduced Word of parse_syllables(text, generators, line)."""
    return Word(parse_syllables(text, generators, line, _seen))


def parse_presentation(text: str) -> Presentation:
    generators: list[str] | None = None
    known: set[str] = set()
    relators: list[Word] = []
    seen: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        # Columns count from the start of raw, leading whitespace included.
        # Blanking the keyword out, instead of slicing it off, keeps token
        # columns in those terms.
        start = len(raw) - len(raw.lstrip()) + 1
        if line.startswith("gens:"):
            if generators is not None:
                raise PresentationSyntaxError("duplicate gens: line", lineno, start)
            generators = []
            for token, col in _tokens_with_columns(raw.replace("gens:", "     ", 1)):
                if not _NAME_RE.fullmatch(token):
                    raise PresentationSyntaxError(
                        f"bad generator name {token!r}", lineno, col
                    )
                if token in known:
                    raise PresentationSyntaxError(
                        f"duplicate generator {token!r}", lineno, col
                    )
                known.add(token)
                generators.append(token)
        elif line.startswith("rel:"):
            if generators is None:
                raise PresentationSyntaxError(
                    "rel: line before gens: line", lineno, start
                )
            relators.append(
                parse_word(raw.replace("rel:", "    ", 1), known, lineno, seen)
            )
        else:
            raise PresentationSyntaxError(
                f"expected 'gens:' or 'rel:', got {line.split()[0]!r}", lineno, start
            )
    if generators is None:
        raise PresentationSyntaxError("missing gens: line", 1, 1)
    return Presentation(generators, relators)


def presentation_to_text(P: Presentation) -> str:
    lines = ["gens: " + " ".join(P.generators)]
    for r in P.relators:
        lines.append(f"rel: {r}")
    return "\n".join(lines) + "\n"
