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

from .presentations import NAME_PATTERN, Presentation
from .words import Word

_NAME_RE = re.compile(NAME_PATTERN)
_INT_RE = re.compile(r"^-?[0-9]+$")
# A whole whitespace-delimited token that is ``name`` or ``name^k`` with
# k nonzero, as (name, digits of k or "").  A word is well formed exactly
# when findall returns one match per token.  Matching token by token keeps
# no SRE state across tokens, where a fullmatch of a repeated group over
# the whole word would grow its backtracking stack with the word, and
# possessive repeats need Python 3.11.
_TOKEN = rf"({NAME_PATTERN})(?:\^(-?0*[1-9][0-9]*))?"
_TOKEN_RE = re.compile(rf"(?<!\S){_TOKEN}(?!\S)")
# A whole token that _TOKEN_RE does not match: the lookahead fails exactly
# at the start of a well-formed token.
_BAD_TOKEN_RE = re.compile(rf"(?<!\S)(?!{_TOKEN}(?!\S))\S+")


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


def parse_word(text: str, generators: set[str] | None = None, line: int = 1) -> Word:
    """Parse whitespace-separated word tokens; optionally restrict names.

    One regex findall picks out the well-formed tokens; their names and
    exponents are checked in bulk.  If they pass and are all the tokens,
    they are the word.  If they pass but a token is malformed, a regex
    search finds the first such, and only it goes to the per-token
    parser.  Only an unknown name or an exponent too long for int() makes
    the tokens be walked one by one.  Either way the error is that of the
    first bad token, with its column.
    """
    pairs = _TOKEN_RE.findall(text)
    if generators is None or generators.issuperset([n for n, _ in pairs]):
        try:
            if len(pairs) == len(text.split()):
                return Word([(n, int(e) if e else 1) for n, e in pairs])
            [int(e) for _, e in pairs if e]  # as building the word would
        except ValueError:  # an exponent too long for int()
            pass
        else:
            bad = _BAD_TOKEN_RE.search(text)
            _parse_token(bad.group(), line, bad.start() + 1)
    for m in re.finditer(r"\S+", text):
        name, _ = _parse_token(m.group(), line, m.start() + 1)
        if generators is not None and name not in generators:
            raise UnknownGenerator(f"line {line}: unknown generator {name!r}")
    raise AssertionError("a word the bulk check rejects has a bad token")


def parse_presentation(text: str) -> Presentation:
    generators: list[str] | None = None
    known: set[str] = set()
    relators: list[Word] = []
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
                parse_word(raw.replace("rel:", "    ", 1), known, line=lineno)
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
