"""The acceptance suite: every reproducible claim the library is built
around, run end to end with exact tolerances (all comparisons are exact
equalities of integers, words or canonical polynomials).

Each check returns a CheckResult; `run_all` prints one line per check.
``knotcert selftest`` and the pytest suite run the same functions, and the
seam-quotient and fold checks call the reports that ``verify-tau`` and
``fold`` print, so each verdict rule has exactly one source of truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .constructions import (
    MismatchError,
    annihilator_poly,
    checked_annihilator_poly,
    derive_gamma_consistency,
    distinctness_certificates,
    fold_report,
    gamma_presentation,
    gamma_tab_presentation,
    tau_report,
    torus_wirtinger,
)
from .fox import GroupRingElement, alexander_polynomial, fox_derivative
from .intlinalg import Matrix, smith_normal_form
from .laurent import LaurentPoly, cyclotomic
from .presentations import abelianization, exponent_matrix
from .torus import TorusKnotParams, normal_form
from .words import Word

_SEED = 74025381


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_annihilator_forms() -> CheckResult:
    """Sum form and closed form of the annihilator polynomial agree."""
    bad = []
    for p in range(1, 13):
        try:
            checked_annihilator_poly(p)
        except MismatchError:
            bad.append(p)
    return CheckResult(
        "annihilator-poly-forms",
        not bad,
        "sum == closed for p = 1..12" if not bad else f"mismatch at p in {bad}",
    )


def check_fox_pipeline() -> CheckResult:
    """Fox-calculus Alexander polynomial of the Wirtinger presentation
    equals the closed-form annihilator polynomial."""
    bad = []
    for p in range(2, 7):
        if alexander_polynomial(torus_wirtinger(p)) != annihilator_poly(p):
            bad.append(p)
    return CheckResult(
        "fox-pipeline-cross-check",
        not bad,
        "alexander(wirtinger(p)) == annihilator(p) for p = 2..6"
        if not bad
        else f"mismatch at p in {bad}",
    )


def check_tab_fidelity() -> CheckResult:
    """The substitution route to the t,a,b presentation reproduces the
    closed-form relators, and the meridian reconciliation verifies."""
    try:
        for p in range(1, 7):
            gamma_tab_presentation(p)
    except MismatchError as exc:
        return CheckResult("tab-presentation-fidelity", False, f"route mismatch: {exc}")
    bad = [p for p in range(2, 7) if not derive_gamma_consistency(p).verified]
    return CheckResult(
        "tab-presentation-fidelity",
        not bad,
        "routes agree for p = 1..6; meridian reconciliation verified"
        if not bad
        else f"reconciliation failed at p in {bad}",
    )


def check_distinctness() -> CheckResult:
    """All pairwise certificates for 1 <= p < k <= 12 are valid, with the
    exact cyclotomic divisibility pattern whenever p >= 2."""
    bad = []
    for cert in distinctness_certificates(1, 12):
        ok = cert.valid
        if cert.p >= 2:
            ok = (
                ok
                and cert.mode == "cyclotomic"
                and cert.divides_in_k
                and not cert.divides_in_p
            )
        if not ok:
            bad.append((cert.p, cert.k))
    return CheckResult(
        "pairwise-distinctness",
        not bad,
        "66 valid certificates for 1 <= p < k <= 12"
        if not bad
        else f"invalid pairs: {bad}",
    )


def check_abelianization() -> CheckResult:
    """Each quotient group abelianizes to Z with SNF diagonal (1,1,1,0)."""
    bad = []
    for p in range(1, 9):
        G = gamma_presentation(p)
        ab = abelianization(G)
        diag = smith_normal_form(exponent_matrix(G)).diagonal()
        if not ab.is_infinite_cyclic() or diag != [1, 1, 1, 0]:
            bad.append((p, diag))
    return CheckResult(
        "abelianization",
        not bad,
        "SNF diagonal (1,1,1,0) and infinite cyclic for p = 1..8"
        if not bad
        else f"unexpected: {bad}",
    )


def check_tau_quotient() -> CheckResult:
    """tau_report verifies: the seam commutator is a nontrivial commutator
    and killing it leaves abelianization Z and Alexander polynomial 1."""
    bad = [p for p in range(2, 6) if not tau_report(p).ok]
    return CheckResult(
        "seam-quotient",
        not bad,
        "quotient by [a1, a1..ap] has abelianization Z and alexander 1, p = 2..5"
        if not bad
        else f"failed at p in {bad}",
    )


def check_fold_surjection() -> CheckResult:
    """The fold onto the torus knot group is a surjective homomorphism."""
    bad = [p for p in range(2, 9) if not fold_report(p).surjective]
    return CheckResult(
        "fold-surjection",
        not bad,
        "fold is a surjective homomorphism for p = 2..8"
        if not bad
        else f"failed at p in {bad}",
    )


def _random_word(rng: random.Random, gens: list[str], length: int) -> Word:
    return Word(
        (rng.choice(gens), rng.choice((1, -1))) for _ in range(length)
    )


def _fox_fundamental_ok(w: Word, gens: list[str]) -> bool:
    # sum_g d(w)/dg * (g - 1) == w - 1
    ring = GroupRingElement.from_word
    one = ring(Word.identity())
    total = GroupRingElement.zero()
    for g in gens:
        total = total + fox_derivative(w, g) * (ring(Word.gen(g)) - one)
    return total == ring(w) - one


def check_property_suites() -> CheckResult:
    """Randomized exactness suites: the Fox fundamental formula, the
    cyclotomic product identity, Smith-form invariants, and word-problem
    soundness under relator insertion.  Deterministically seeded."""
    rng = random.Random(_SEED)
    failures = []

    gens = ["g1", "g2", "g3", "g4"]
    for i in range(1000):
        w = _random_word(rng, gens, rng.randint(0, 40))
        if not _fox_fundamental_ok(w, gens):
            failures.append(f"fox fundamental formula on word #{i}")
            break

    for n in range(1, 157):
        prod = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        if prod != LaurentPoly({n: 1, 0: -1}):
            failures.append(f"cyclotomic product identity at n={n}")
            break

    for i in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = Matrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        snf = smith_normal_form(A)
        diag = snf.diagonal()
        ok = (
            snf.U.mul(A).mul(snf.V) == snf.D
            and abs(snf.U.det()) == 1
            and abs(snf.V.det()) == 1
            and all(d >= 0 for d in diag)
            and all(
                diag[j] % diag[j - 1] == 0
                for j in range(1, len(diag))
                if diag[j - 1]
            )
            and all(diag[j] == 0 for j in range(1, len(diag)) if diag[j - 1] == 0)
        )
        if not ok:
            failures.append(f"smith normal form invariants on sample #{i}")
            break

    for p, q in ((2, 3), (3, 4), (4, 5)):
        tk = TorusKnotParams(p, q)
        relator_letters = Word([("x", p), ("y", -q)]).letters()
        for i in range(334):
            w = _random_word(rng, ["x", "y"], rng.randint(0, 30))
            base = normal_form(tk, w)
            rot = rng.randrange(len(relator_letters))
            ins = relator_letters[rot:] + relator_letters[:rot]
            if rng.random() < 0.5:
                ins = [(g, -s) for g, s in reversed(ins)]
            pos = rng.randint(0, w.length())
            letters = w.letters()
            stuffed = Word(letters[:pos] + ins + letters[pos:])
            if normal_form(tk, stuffed) != base:
                failures.append(f"word-problem soundness at (p,q)=({p},{q}) sample #{i}")
                break

    return CheckResult(
        "property-suites",
        not failures,
        "fox formula x1000, cyclotomic products n<=156, SNF x150, "
        "word-problem soundness x1002: zero failures"
        if not failures
        else "; ".join(failures),
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_annihilator_forms,
    check_fox_pipeline,
    check_tab_fidelity,
    check_distinctness,
    check_abelianization,
    check_tau_quotient,
    check_fold_surjection,
    check_property_suites,
)


def run_all(write=print) -> bool:
    all_ok = True
    for check in ALL_CHECKS:
        result = check()
        all_ok = all_ok and result.passed
        status = "PASS" if result.passed else "FAIL"
        write(f"{status} {result.name}: {result.detail}")
    return all_ok
