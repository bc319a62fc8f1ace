"""Seeded operation batches for the four workloads.

A batch is the list of operations one pass of a run issues.  Every batch
of a workload holds the same classes of operation in the same numbers;
the seed picks the order, the parameters inside each class's band, and
the decorations of each presentation file (generator names, relator
rotation, inversion and order).  So a run's work hardly depends on the
seed, while no two passes hand knotcert the same bytes.

An operation is a dict: ``argv`` for ``knotcert.cli.run`` (the token
``{file}`` stands for the path of ``file``, the presentation text to
write first), and ``expect``, the oracle call that checks its output.
Nothing here imports knotcert.
"""

from __future__ import annotations

import math
import random

from oracles import (
    PRESENT_FORMS,
    cyclic_reduce,
    free_reduce,
    invert,
    presentation_text,
    seam_quotient,
    wirtinger,
)

WORKLOADS = ("certify-sweep", "alexander-wide", "alexander-tall", "family-verbs")

# Each workload's classes: what one batch holds.  The counts keep the
# batch median and its eleventh-slowest operation (the tail with ten
# operations beyond it) away from a boundary between classes whose costs
# overlap, where the seed's decorations would decide which class they hit.
SWEEP_MAX = [m for m in range(8, 20) for _ in range(2)]
WIDE_CLASSES = [("wirtinger", 8, 1), ("seam", 6, 2), ("wirtinger", 7, 9),
                ("seam", 5, 6), ("wirtinger", 6, 4), ("seam", 4, 3),
                ("wirtinger", 5, 4)]
TALL_STRATA = [(80 + 2 * i, 81 + 2 * i) for i in range(24)]

# Largest input any batch can hold, by workload, as input_limits counts
# it.  perfbench/README.md quotes them; the self-tests check generated
# batches against them.
LIMITS = {
    "certify-sweep": {"max_sweep_m": 19},
    "alexander-wide": {"max_abs_exponent": 1, "max_generators": 9, "max_relators": 9,
                       "max_minors": 196},
    "alexander-tall": {"max_abs_exponent": 128, "max_generators": 2, "max_relators": 1,
                       "max_minors": 2},
    "family-verbs": {"max_abs_exponent": 7, "max_word_syllables": 3000, "max_p_present": 12,
                     "max_p_fold": 13, "max_p_verify-tau": 5, "max_p_gamma": 20,
                     "max_p_distinct": 39, "max_k_distinct": 40},
}


def input_limits(ops: list[dict]) -> dict[str, int]:
    """The largest sizes the batch hands to knotcert.  max_minors counts
    the maximal minors (size generators - 1) of a file's Alexander matrix."""
    out: dict[str, int] = {}

    def bump(key, value):
        out[key] = max(out.get(key, 0), value)

    for op in ops:
        argv = op["argv"]
        if "file" in op:
            lines = op["file"].splitlines()
            gens = len(lines[0].split()) - 1
            rels = len(lines) - 1
            for line in lines[1:]:
                for token in line.split()[1:]:
                    bump("max_abs_exponent", abs(int(token.partition("^")[2] or 1)))
            bump("max_generators", gens)
            bump("max_relators", rels)
            bump("max_minors", math.comb(rels, gens - 1) * gens)
        elif argv[0] == "distinct-range":
            bump("max_sweep_m", int(argv[argv.index("--max") + 1]))
        elif argv[0] == "wp":
            tokens = argv[argv.index("--word") + 1].split()
            bump("max_word_syllables", len(tokens))
            for token in tokens:
                bump("max_abs_exponent", abs(int(token.partition("^")[2] or 1)))
        else:
            for flag in ("--p", "--k"):
                if flag in argv:
                    bump(f"max_{flag[2:]}_{argv[0]}", int(argv[argv.index(flag) + 1]))
    return out


def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_no}")


def _rotate(rng: random.Random, syllables):
    """A random cyclic rotation at letter level, freely reduced."""
    letters = [(g, 1 if e > 0 else -1) for g, e in syllables for _ in range(abs(e))]
    cut = rng.randrange(len(letters))
    return free_reduce(letters[cut:] + letters[:cut])


def decorate(rng: random.Random, gens, relators) -> str:
    """Rename the generators, rotate every relator, invert some, and shuffle
    both lists.  None of this changes the group."""
    numbers = rng.sample(range(100, 1000), len(gens))
    names = {g: f"{rng.choice('gsxKm')}{'_' if rng.random() < 0.3 else ''}{n}"
             for g, n in zip(gens, numbers)}
    rels = []
    for r in relators:
        r = _rotate(rng, cyclic_reduce(r))
        if rng.random() < 0.5:
            r = invert(r)
        rels.append([(names[g], e) for g, e in r])
    rng.shuffle(rels)
    new_gens = [names[g] for g in gens]
    rng.shuffle(new_gens)
    return presentation_text(new_gens, rels)


def _alexander(text: str, expect: tuple) -> dict:
    return {"argv": ["alexander", "--file", "{file}"], "file": text, "expect": expect}


def certify_sweep(rng: random.Random) -> list[dict]:
    maxima = list(SWEEP_MAX)
    rng.shuffle(maxima)
    return [{"argv": ["distinct-range", "--min", "1", "--max", str(m)],
             "expect": ("sweep", m)} for m in maxima]


def alexander_wide(rng: random.Random) -> list[dict]:
    ops = []
    for kind, p, count in WIDE_CLASSES:
        for _ in range(count):
            if kind == "wirtinger":
                ops.append(_alexander(decorate(rng, *wirtinger(p)), ("delta", p, p + 1)))
            else:
                ops.append(_alexander(decorate(rng, *seam_quotient(p)), ("one",)))
    rng.shuffle(ops)
    return ops


def alexander_tall(rng: random.Random) -> list[dict]:
    ops = []
    for lo, hi in TALL_STRATA:
        e = rng.randint(lo, hi)
        sx, sy = rng.choice([(1, -1), (-1, 1), (1, 1), (-1, -1)])
        relator = [("x", sx * e), ("y", sy * (e + 1))]
        ops.append(_alexander(decorate(rng, ["x", "y"], [relator]), ("delta", e, e + 1)))
    rng.shuffle(ops)
    return ops


_WP_PARAMS = [(p, q) for p in range(2, 8) for q in range(2, 10) if math.gcd(p, q) == 1]


def _wp(rng: random.Random, length: int) -> dict:
    p, q = rng.choice(_WP_PARAMS)
    syllables = [("xy"[i % 2], rng.choice([-1, 1]) * rng.randint(1, 7)) for i in range(length)]
    if rng.random() < 0.5:
        syllables = [("yx"[i % 2], e) for i, (_, e) in enumerate(syllables)]
    text = " ".join(g if e == 1 else f"{g}^{e}" for g, e in syllables)
    return {"argv": ["wp", "--p", str(p), "--q", str(q), "--word", text],
            "expect": ("wp", p, q, syllables)}


def _stratum(rng: random.Random, lo: int, hi: int, i: int, n: int) -> int:
    """A value from the i-th of n equal strata of [lo, hi]."""
    width = (hi - lo + 1) / n
    return rng.randint(lo + math.ceil(i * width), lo + math.ceil((i + 1) * width) - 1)


def family_verbs(rng: random.Random) -> list[dict]:
    ops = [_wp(rng, _stratum(rng, 200, 3000, i, 24)) for i in range(24)]
    forms = list(PRESENT_FORMS) + [rng.choice(list(PRESENT_FORMS))]
    for form in forms:
        p = rng.randint(2, 12)
        ops.append({"argv": ["present", "--p", str(p), "--form", form],
                    "expect": ("present", form, p)})
    for i in range(6):
        p = _stratum(rng, 2, 13, i, 6)
        ops.append({"argv": ["fold", "--p", str(p)], "expect": ("fold", p)})
    for p in (2, 3, 4, 5, 2, 3, 4, 5):
        ops.append({"argv": ["verify-tau", "--p", str(p)], "expect": ("tau", p)})
    for i in range(8):
        p = _stratum(rng, 4, 20, i, 8)
        if i % 2:
            ops.append({"argv": ["gamma", "--p", str(p), "--json"],
                        "expect": ("gamma-json", p)})
        else:
            ops.append({"argv": ["gamma", "--p", str(p)], "expect": ("gamma", p)})
    pairs = []
    for i in range(8):
        k = _stratum(rng, 3, 40, i, 8)
        pairs.append((rng.randint(2, k - 1), k))
    pairs += [(1, _stratum(rng, 10, 29, i, 2)) for i in range(2)]
    for p, k in pairs:
        ops.append({"argv": ["distinct", "--p", str(p), "--k", str(k), "--json"],
                    "expect": ("certificate", p, k)})
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "certify-sweep": certify_sweep,
    "alexander-wide": alexander_wide,
    "alexander-tall": alexander_tall,
    "family-verbs": family_verbs,
}


def batch(workload: str, seed: int, pass_no: int) -> list[dict]:
    """The operations of one pass; the same arguments give the same batch."""
    return _BUILDERS[workload](_rng(workload, seed, pass_no))
