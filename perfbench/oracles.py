"""Output checks that do not call knotcert.

Each check recomputes what theory fixes about an answer with plain
integer lists and tuples: torus-knot Alexander polynomials from their
closed form, cyclotomic polynomials from the Moebius product, torus-knot
normal forms, and the printed presentations the workloads ask for.
Polynomials are dense coefficient lists, lowest exponent first.
"""

from __future__ import annotations

import json


# ---------------------------------------------------------------- polynomials

def _times_binomial(f: list[int], d: int) -> list[int]:
    """f * (t^d - 1)."""
    out = [0] * (len(f) + d)
    for i, c in enumerate(f):
        out[i + d] += c
        out[i] -= c
    return out


def _over_binomial(f: list[int], d: int) -> list[int]:
    """f / (t^d - 1), exact; ValueError when there is a remainder."""
    rem = list(f)
    quot = [0] * max(len(f) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quot[i - d] = c
            rem[i - d] += c
            rem[i] = 0
    if any(rem):
        raise ValueError(f"not divisible by t^{d} - 1")
    return quot


def torus_delta(p: int, q: int) -> list[int]:
    """Alexander polynomial of the (p, q) torus knot,
    (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)), canonical: t^0 coefficient
    first, and it is 1."""
    geometric = [0] * ((p - 1) * q + 1)  # (t^(pq) - 1) / (t^q - 1)
    for i in range(p):
        geometric[i * q] = 1
    return _over_binomial(_times_binomial(geometric, 1), p)


def _moebius(n: int) -> int:
    mu, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def cyclotomic(n: int) -> list[int]:
    """Phi_n as the product of (t^d - 1)^mu(n/d) over the divisors d of n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _moebius(n // d) == 1:
            poly = _times_binomial(poly, d)
    for d in divisors:
        if _moebius(n // d) == -1:
            poly = _over_binomial(poly, d)
    return poly


def coeff_line(coeffs: list[int]) -> str:
    return " ".join(str(c) for c in coeffs)


# ---------------------------------------------------------------- words

def free_reduce(syllables) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for g, e in syllables:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return out


def cyclic_reduce(syllables) -> list[tuple[str, int]]:
    """Cancel inverse letters across the two ends of a freely reduced word."""
    syl = free_reduce(syllables)
    while len(syl) > 1 and syl[0][0] == syl[-1][0] and (syl[0][1] > 0) != (syl[-1][1] > 0):
        g, head, tail = syl[0][0], syl[0][1], syl[-1][1]
        cut = min(abs(head), abs(tail))
        head -= cut if head > 0 else -cut
        tail -= cut if tail > 0 else -cut
        syl = free_reduce([(g, head)] + syl[1:-1] + [(g, tail)])
    return syl


def invert(syllables) -> list[tuple[str, int]]:
    return [(g, -e) for g, e in reversed(syllables)]


def word_text(syllables) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in syllables)


def presentation_text(gens, relators) -> str:
    lines = ["gens: " + " ".join(gens)]
    lines += ["rel: " + word_text(r) for r in relators]
    return "\n".join(lines) + "\n"


def strand(prefix: str, p: int) -> list[tuple[str, int]]:
    return [(f"{prefix}{i}", 1) for i in range(1, p + 1)]


def wirtinger_relators(z: str, prefix: str, p: int) -> list[list[tuple[str, int]]]:
    """<z, a1..ap | z = a1...ap a1, z a1 z^-1 = ap, z ak z^-1 = a(k-1)>."""
    a = lambda i, e=1: (f"{prefix}{i}", e)  # noqa: E731
    rels = [[(z, 1)] + invert(strand(prefix, p) + [a(1)])]
    rels.append([(z, 1), a(1), (z, -1), a(p, -1)])
    rels += [[(z, 1), a(k), (z, -1), a(k - 1, -1)] for k in range(2, p + 1)]
    return [cyclic_reduce(r) for r in rels]


def wirtinger(p: int) -> tuple[list[str], list[list[tuple[str, int]]]]:
    """Arc presentation of the (p, p+1) torus knot group."""
    return ["z"] + [f"a{i}" for i in range(1, p + 1)], wirtinger_relators("z", "a", p)


def tau(p: int) -> list[tuple[str, int]]:
    """The seam commutator [a1, a1 a2 ... ap], freely reduced."""
    s = strand("a", p)
    return free_reduce([("a1", 1)] + s + [("a1", -1)] + invert(s))


def seam_quotient(p: int) -> tuple[list[str], list[list[tuple[str, int]]]]:
    gens, rels = wirtinger(p)
    return gens, rels + [cyclic_reduce(tau(p))]


def gamma(p: int) -> tuple[list[str], list[list[tuple[str, int]]]]:
    return ["u", "v", "x", "y"], [
        [("u", p), ("v", p + 1)],
        [("x", p), ("y", p + 1)],
        [("u", 1), ("v", 1), ("y", -1), ("x", -1)],
        [("v", 1), ("u", 1), ("x", -1), ("y", -1)],
    ]


def gamma_tab(p: int) -> tuple[list[str], list[list[tuple[str, int]]]]:
    """The three-generator rewriting over t = xy, a = t^p v, b = t^p y."""
    def conj(exp, letter, sign):
        return [("t", exp), (letter, sign), ("t", -exp)]

    def product(letter):
        word = []
        for k in range(p):
            word += conj(k * (p + 1) + 1, letter, -1)
        for k in range(p + 1):
            word += conj(p * p - k * p, letter, 1)
        return cyclic_reduce(word)

    exchange = [("a", 1), ("t", 1), ("a", -1), ("t", -1),
                ("t", 1), ("b", 1), ("t", -1), ("b", -1)]
    return ["t", "a", "b"], [product("a"), product("b"), cyclic_reduce(exchange)]


def double(p: int) -> tuple[list[str], list[list[tuple[str, int]]]]:
    gens = ["z"] + [f"a{i}" for i in range(1, p + 1)] + ["w"] + [f"b{i}" for i in range(1, p + 1)]
    rels = (wirtinger_relators("z", "a", p) + wirtinger_relators("w", "b", p)
            + [[("a1", 1), ("b1", -1)]])
    return gens, rels


PRESENT_FORMS = {
    "wirtinger": wirtinger,
    "standard": lambda p: (["x", "y"], [[("x", p), ("y", p + 1)]]),
    "gamma": gamma,
    "gamma-tab": gamma_tab,
    "double": double,
}


def torus_normal_form(p: int, q: int, syllables) -> str:
    """Normal form c^m s in <x, y | x^p = y^q>, c = x^p = y^q central, s
    alternating with x-exponents in [1, p-1] and y-exponents in [1, q-1];
    printed the way `knotcert wp` prints it."""
    order = {"x": p, "y": q}
    central = 0
    word: list[list] = []
    for g, e in syllables:
        if word and word[-1][0] == g:
            e += word[-1][1]
            word.pop()
        central += e // order[g]
        if e % order[g]:
            word.append([g, e % order[g]])
    if central == 0 and not word:
        return "trivial"
    head = [] if central == 0 else ["c" if central == 1 else f"c^{central}"]
    return " ".join(head + [word_text([(g, e)]) for g, e in word])


# ---------------------------------------------------------------- checks

def _lines(out: str) -> list[str]:
    return out.split("\n")


def check(expect: tuple, rc: int, out: str) -> str | None:
    """None when the output of one operation is right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    kind, *args = expect
    return _CHECKS[kind](out, *args)


def _check_sweep(out: str, m: int) -> str | None:
    lines = []
    for p in range(1, m + 1):
        mode = "unit_ideal" if p == 1 else "cyclotomic"
        lines += [f"p={p} k={k} mode={mode} phi_index={k * (k + 1)} valid=yes"
                  for k in range(p + 1, m + 1)]
    lines.append(f"summary: {len(lines)}/{len(lines)} certificates valid")
    return None if out == "\n".join(lines) + "\n" else "certificate lines differ"


def _check_coeffs(out: str, coeffs: list[int]) -> str | None:
    return None if out == coeff_line(coeffs) + "\n" else "coefficient line differs"


def _check_delta(out: str, p: int, q: int) -> str | None:
    return _check_coeffs(out, torus_delta(p, q))


def _check_one(out: str) -> str | None:
    return _check_coeffs(out, [1])


def _check_wp(out: str, p: int, q: int, syllables) -> str | None:
    want = torus_normal_form(p, q, syllables)
    return None if out == want + "\n" else f"normal form differs from {want[:40]!r}"


def _check_present(out: str, form: str, p: int) -> str | None:
    gens, rels = PRESENT_FORMS[form](p)
    return None if out == presentation_text(gens, rels) else "presentation text differs"


def _require(out: str, lines: list[str]) -> str | None:
    have = set(_lines(out))
    missing = [line for line in lines if line not in have]
    return f"missing line {missing[0]!r}" if missing else None


def _check_fold(out: str, p: int) -> str | None:
    gens, rels = gamma(p)
    images = {"u": "x", "v": "y", "x": "x", "y": "y"}
    want = [f"fold u -> x, v -> y, x -> x, y -> y onto <x, y | x^{p} y^{p + 1}>"]
    for r in rels:
        image = free_reduce([(images[g], e) for g, e in r])
        want.append(f"relator {word_text(r)} maps to {word_text(image) or '1'}: trivial")
    want += ["images reach x: yes", "images reach y: yes",
             "verdict: HOMOMORPHISM, SURJECTIVE", ""]
    return None if _lines(out) == want else "fold report differs"


def _check_tau(out: str, p: int) -> str | None:
    return _require(out, [
        f"tau = {word_text(tau(p))}",
        "exponent sums all zero: yes",
        "image nontrivial: yes",
        "image lies in the commutator subgroup: yes",
        "quotient abelianization infinite cyclic: yes",
        "quotient alexander polynomial: 1",
        "verdict: VERIFIED",
    ])


def _check_gamma(out: str, p: int) -> str | None:
    return _require(out, [
        f"artifacts for p = {p}",
        "  coefficients (ascending from t^0): " + coeff_line(torus_delta(p, p + 1)),
        "  elementary ideal E1 of the three-generator presentation matches "
        "the order ideal: yes",
        "  gcd of E1 of the four-generator presentation equals the annihilator: yes",
    ]) or _require(out, presentation_text(*gamma(p)).splitlines())


def _json_poly(coeffs: list[int]) -> dict:
    return {"min_exp": 0, "coeffs": [str(c) for c in coeffs]}


def _check_gamma_json(out: str, p: int) -> str | None:
    obj = json.loads(out)
    if obj["p"] != p or obj["presentation"] != presentation_text(*gamma(p)):
        return "wrong parameter or presentation"
    if obj["annihilator"] != _json_poly(torus_delta(p, p + 1)):
        return "annihilator differs from the closed form"
    if not (obj["fox_tab_matches_order_ideal"] and obj["fox_gamma_gcd_equals_annihilator"]):
        return "a fox-calculus cross-check failed"
    return None


def _check_certificate(out: str, p: int, k: int) -> str | None:
    obj = json.loads(out)
    want = {
        "schema_version": 1, "p": p, "k": k,
        "mode": "unit_ideal" if p == 1 else "cyclotomic",
        "phi_index": k * (k + 1),
        "divides_in_k": True, "divides_in_p": False, "valid": True,
    }
    for key, value in want.items():
        if obj.get(key) != value:
            return f"field {key} is {obj.get(key)!r}, theory says {value!r}"
    polys = obj["polynomials"]
    if polys["annihilator_p"] != _json_poly(torus_delta(p, p + 1)):
        return "annihilator_p differs from the closed form"
    if polys["annihilator_k"] != _json_poly(torus_delta(k, k + 1)):
        return "annihilator_k differs from the closed form"
    if polys["phi"] != _json_poly(cyclotomic(k * (k + 1))):
        return "phi differs from the Moebius product"
    return None


_CHECKS = {
    "sweep": _check_sweep,
    "delta": _check_delta,
    "one": _check_one,
    "wp": _check_wp,
    "present": _check_present,
    "fold": _check_fold,
    "tau": _check_tau,
    "gamma": _check_gamma,
    "gamma-json": _check_gamma_json,
    "certificate": _check_certificate,
}
