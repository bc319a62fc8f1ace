"""The pinned stdout of the CLI: one table of commands and sha256 digests,
and the coefficient lines `alexander --file` prints on each `present`
form.  tests/test_cli.py's TestGolden checks them under pytest; this file
also runs them with nothing but the standard library and knotcert:

    PYTHONPATH=src python tests/golden.py

It prints one line per entry and exits 1 if any digest or line differs,
so the same check runs on any interpreter knotcert supports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from typing import Callable, NamedTuple

from knotcert.cli import run


class Golden(NamedTuple):
    """argvs() lists the commands in order; each is run and recorded into
    one sha256 as record names: "text" is stdout alone (every exit code
    must be 0), "code text" is f"{code}\\n{stdout}" and "argv code text"
    is f"{' '.join(argv)}\\n{code}\\n{stdout}"."""

    name: str
    argvs: Callable[[], list[list[str]]]
    record: str
    digest: str


def _distinct_range_every_range() -> list[list[str]]:
    # every 1 <= lo <= hi <= 40 as text, every 1 <= lo <= hi <= 25 as JSON
    # and 1..40 as JSON
    ranges = [[lo, hi] for lo in range(1, 41) for hi in range(lo, 41)]
    ranges += [[lo, hi, "--json"] for lo in range(1, 26) for hi in range(lo, 26)]
    ranges += [[1, 40, "--json"]]
    return [["distinct-range", "--min", str(lo), "--max", str(hi), *extra] for lo, hi, *extra in ranges]


def _distinct_pairs() -> list[list[str]]:
    # 1 <= p < k <= 15, text then JSON
    return [
        ["distinct", "--p", str(p), "--k", str(k), *extra]
        for extra in ([], ["--json"])
        for p in range(1, 16)
        for k in range(p + 1, 16)
    ]


# Malformed words, words with unknown names and words whose syllables
# cancel, for the wp digest; each exits 0 or 2.
WP_ERROR_WORDS = (
    "", "x^0", "q", "x^", "^2", "x^2^3", "x z z^-1", "x^-00", "x\x1cy",
    "x^\u0663", "x^+2", "x ^2", "x^2y", "x^-", "x^--1", "y^0003 x^-0010",
    "x\u00a0y^2", "x y x^-1 y^-1 z^0", "x!", "\u00e9", "x y^1 x^-1 x y^-1",
)


def _wp_golden_cases() -> list[list[str]]:
    """About 200 seeded wp requests: random words over {x, y} of up to 3000
    syllables, with merges, cancellations, leading zeros and mixed
    whitespace, on several (p, q), then the error words."""
    rng = random.Random(2011)
    params = [(2, 3), (3, 2), (2, 5), (3, 4), (5, 7), (7, 9), (4, 9), (2, 9)]
    cases = []
    for i in range(180):
        n = 3000 if i % 30 == 0 else rng.randint(0, 3000)
        alternate = i % 3 == 0
        tokens = []
        for j in range(n):
            g = "xy"[j % 2] if alternate else rng.choice("xy")
            e = rng.choice((-1, 1)) * rng.randint(1, 9)
            exp = rng.choice(("", "0", "00")) + str(abs(e))
            tokens.append(g if e == 1 else f"{g}^{'-' if e < 0 else ''}{exp}")
        sep = rng.choice((" ", "  ", "\t", " \n "))
        cases.append((*params[i % len(params)], sep.join(tokens)))
    cases.append((2, 4, "x"))
    cases.extend((2, 3, word) for word in WP_ERROR_WORDS)
    return [["wp", "--p", str(p), "--q", str(q), "--word", word] for p, q, word in cases]


def _report_verbs() -> list[list[str]]:
    # verify-tau and fold for p = 0..12, then selftest
    return (
        [["verify-tau", "--p", str(p)] for p in range(13)]
        + [["fold", "--p", str(p)] for p in range(13)]
        + [["selftest"]]
    )


# Each digest was recorded from an earlier implementation, named after it.
GOLDEN = (
    # the per-pair implementation, which recomputed the k-side facts for
    # every pair
    Golden("distinct-range 1..19", lambda: [["distinct-range", "--min", "1", "--max", "19"]], "text",
           "d5e8bdc706327eb96168f8e9ebad6ec8a9966095639787f14807b7398eccaffe"),
    Golden("distinct-range 1..19 --json", lambda: [["distinct-range", "--min", "1", "--max", "19", "--json"]], "text",
           "cbc5211d51b59d9f181cd09e5f8ddb6e03cb6e65e972055211a0b334b0333783"),
    # the producer that built the whole certificate list before the first
    # line and wrote JSON by json.dumps(indent=2)
    Golden("distinct-range every range", _distinct_range_every_range, "argv code text",
           "d1f0e99750935cb295187db796692d35c859f3d840f222b9e7d934962bb7be95"),
    # the single-pair producer that glued its k-side and p-side facts
    # together by position
    Golden("distinct", _distinct_pairs, "code text",
           "c8536b92833509066c76f36fb8a5b938ebbf20e90a226e40be408371791c8f8c"),
    # Bareiss over the Laurent ring, which multiplied and divided
    # LaurentPolys inside every determinant
    Golden("gamma 1..30", lambda: [["gamma", "--p", str(p)] for p in range(1, 31)], "text",
           "aea0bd7d0939c35f8fa9a393bc7e2c8ae0dbede600b4334796f13ba61c44aba6"),
    Golden("gamma 1..30 --json", lambda: [["gamma", "--p", str(p), "--json"] for p in range(1, 31)], "text",
           "d225fab16df462769185136fb141f9bc7d32828cf18c2db645160f5f8e95f73f"),
    # the per-token parser, which ran a regex, a partition and an int for
    # every token, and the list-stack reduction
    Golden("wp", _wp_golden_cases, "code text",
           "19e6dbda95e0c7bd704300555a6faff8121b88e37df4747384ffe4a2674c091f"),
    # the CLI that worked out the tau and fold verdicts inline
    Golden("verify-tau, fold and selftest", _report_verbs, "code text",
           "8273d5dbda6dd676f87a5cd1bd53c89c1636671f8ef0de6e7caa847ff13f9e24"),
)

# Coefficient lines printed by `alexander --file` on each `present` form,
# recorded from the full-minors implementation.
ALEXANDER_GOLDEN = {
    ("wirtinger", 2): "1 -1 1",
    ("wirtinger", 3): "1 -1 0 1 0 -1 1",
    ("wirtinger", 4): "1 -1 0 0 1 0 -1 0 1 0 0 -1 1",
    ("standard", 2): "1 -1 1",
    ("standard", 3): "1 -1 0 1 0 -1 1",
    ("standard", 4): "1 -1 0 0 1 0 -1 0 1 0 0 -1 1",
    ("gamma", 2): "1 -1 1",
    ("gamma", 3): "1 -1 0 1 0 -1 1",
    ("gamma", 4): "1 -1 0 0 1 0 -1 0 1 0 0 -1 1",
    ("gamma-tab", 2): "1 -1 1",
    ("gamma-tab", 3): "1 -1 0 1 0 -1 1",
    ("gamma-tab", 4): "1 -1 0 0 1 0 -1 0 1 0 0 -1 1",
    ("double", 2): "1 -2 3 -2 1",
    ("double", 3): "1 -2 1 2 -2 -2 5 -2 -2 2 1 -2 1",
    ("double", 4): "1 -2 1 0 2 -2 -2 2 3 -2 -2 -2 7 -2 -2 -2 3 2 -2 -2 2 0 1 -2 1",
}


def capture(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(argv, out)
    return code, out.getvalue()


def digest(entry: Golden) -> str:
    """The sha256 of entry's commands as its record names; ValueError when
    a command of a "text" entry exits other than 0."""
    h = hashlib.sha256()
    for argv in entry.argvs():
        code, text = capture(argv)
        if entry.record == "text":
            if code != 0:
                raise ValueError(f"{' '.join(argv)} exited {code}")
            h.update(text.encode("utf-8"))
        elif entry.record == "code text":
            h.update(f"{code}\n{text}".encode("utf-8"))
        else:
            h.update(f"{' '.join(argv)}\n{code}\n{text}".encode("utf-8"))
    return h.hexdigest()


def alexander_line(form: str, p: int, directory: str) -> tuple[int, str]:
    """Exit code and stdout of `alexander --file` on `present --p p --form
    form`, the file written under directory."""
    _, text = capture(["present", "--p", str(p), "--form", form])
    path = os.path.join(directory, f"{form}-{p}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return capture(["alexander", "--file", path])


def main() -> int:
    results = []
    for entry in GOLDEN:
        try:
            ok = digest(entry) == entry.digest
        except ValueError:  # a nonzero exit where only 0 is recorded
            ok = False
        results.append((ok, entry.name))
    with tempfile.TemporaryDirectory() as directory:
        for (form, p), line in ALEXANDER_GOLDEN.items():
            ok = alexander_line(form, p, directory) == (0, line + "\n")
            results.append((ok, f"alexander on present --p {p} --form {form}"))
    for ok, name in results:
        print("ok     " if ok else "DIFFERS", name)
    failures = sum(not ok for ok, _ in results)
    print(f"Python {sys.version.split()[0]}: {len(results) - failures} of {len(results)} as pinned")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
