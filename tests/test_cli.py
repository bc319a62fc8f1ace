import dataclasses
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys

import pytest

import golden
import knotcert

from knotcert import cli
from knotcert.cli import _certificate_writer, _coeff_line, _coeff_pieces, poly_to_json, run
from knotcert.constructions import annihilator_poly, distinctness_certificate, gamma_artifacts
from knotcert.laurent import LaurentPoly, cyclotomic


def capture(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


class TestPolyJson:
    def test_dense_from_min_exp(self):
        f = LaurentPoly({-2: 3, 0: -7, 5: 1})
        assert poly_to_json(f) == {
            "min_exp": -2,
            "coeffs": ["3", "0", "-7", "0", "0", "0", "0", "1"],
        }

    def test_zero(self):
        assert poly_to_json(LaurentPoly.zero()) == {"min_exp": 0, "coeffs": []}

    def test_coefficients_are_decimal_strings(self):
        big = 10 ** 40
        obj = poly_to_json(LaurentPoly({0: big}))
        assert obj["coeffs"] == [str(big)]


def _random_wide_poly(rng):
    """1-50 terms over a span of up to 10^4, coefficients of either sign and
    some above 2^64."""
    span = rng.randint(0, 10**4)
    lo = rng.randint(-span, span)
    exps = rng.sample(range(lo, lo + span + 1), min(rng.randint(1, 50), span + 1))
    return LaurentPoly({
        e: rng.choice((1, -1)) * (rng.randint(1, 9) if rng.random() < 0.7 else rng.randint(2**64, 2**80))
        for e in exps
    })


class TestCoeffLine:
    """_coeff_pieces renders the dense coefficient line from the nonzero
    terms; " ".join(map(str, dense_coeffs())) is the oracle."""

    def _cases(self):
        rng = random.Random(29)
        cases = [_random_wide_poly(rng) for _ in range(300)]
        cases += [LaurentPoly({rng.randint(-50, 50): c}) for c in (1, -1, 7, -(2**70), 2**64 + 1)]
        cases += [LaurentPoly({0: 1, 1: -1}), LaurentPoly({-3: 2**65, 9000: -5})]
        return cases

    def test_pieces_and_line_match_the_dense_join(self):
        cases = self._cases()
        for f in cases:
            dense = " ".join(map(str, f.dense_coeffs()))
            assert "".join(_coeff_pieces(f)) == dense, f
            assert _coeff_line(f) == dense, f
        assert any(len(f.items()) >= 45 and f.max_exp() - f.min_exp() > 9000 for f in cases)

    def test_zero(self):
        assert "".join(_coeff_pieces(LaurentPoly.zero())) == ""
        assert _coeff_line(LaurentPoly.zero()) == "0"

    def test_alexander_stdout_is_the_line(self, tmp_path, monkeypatch):
        path = tmp_path / "tall.txt"
        path.write_text("gens: x y\nrel: x^5 y^-6\n", encoding="utf-8")
        for f in self._cases():
            monkeypatch.setattr(cli, "alexander_polynomial", lambda P, f=f: f)
            line = " ".join(map(str, f.dense_coeffs()))
            assert capture(["alexander", "--file", str(path)]) == (0, line + "\n")


class TestCertificateJson:
    def test_carries_every_field(self):
        for pair in ((1, 2), (2, 3), (3, 5)):
            cert = distinctness_certificate(*pair)
            obj = json.loads(_certificate_writer("")(cert))
            assert obj.pop("schema_version") == 1
            polys = obj.pop("polynomials")
            assert obj == {
                "p": cert.p,
                "k": cert.k,
                "mode": cert.mode,
                "phi_index": cert.phi_index,
                "divides_in_k": cert.divides_in_k,
                "divides_in_p": cert.divides_in_p,
                "valid": cert.valid,
            }
            assert set(polys) == {"annihilator_p", "annihilator_k", "phi"}
            for key, poly in (
                ("annihilator_p", annihilator_poly(cert.p)),
                ("annihilator_k", annihilator_poly(cert.k)),
                ("phi", cyclotomic(cert.phi_index)),
            ):
                assert polys[key] == {
                    "min_exp": poly.min_exp(),
                    "coeffs": [str(c) for c in poly.dense_coeffs()],
                }, (pair, key)

    def test_deterministic(self):
        cert = distinctness_certificate(2, 3)
        assert _certificate_writer("")(cert) == _certificate_writer("")(cert)

    def test_fields(self):
        obj = json.loads(_certificate_writer("")(distinctness_certificate(2, 3)))
        assert obj["schema_version"] == 1
        assert obj["phi_index"] == 12
        assert obj["valid"] is True
        assert obj["mode"] == "cyclotomic"
        assert obj["polynomials"]["annihilator_p"]["coeffs"] == ["1", "-1", "1"]

    def test_unit_mode_fields(self):
        obj = json.loads(_certificate_writer("")(distinctness_certificate(1, 2)))
        assert obj["mode"] == "unit_ideal"
        assert obj["valid"] is True


def _random_payload(rng, depth):
    """A JSON value shaped like gamma's payload: dicts, lists of scalars,
    lists of containers (as the rows of dicts of module_relations), empty
    containers, and scalars that json escapes.  Like every list the CLI
    writes, a list holds only scalars or only containers."""
    scalars = (
        lambda: rng.randint(-10**20, 10**20),
        lambda: rng.choice((True, False)),
        lambda: rng.choice(("", "a\nb\n", 'say "hi"', "back\\slash", "\u00e9t\u00e9", "\u03a6_12", "tab\t")),
        lambda: str(rng.randint(-9, 9)),
    )
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return rng.choice(scalars)()
    if kind == 1:
        return [rng.choice(scalars)() for _ in range(rng.randint(0, 4))]
    if kind == 2:
        items = [_random_payload(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return [x if isinstance(x, (dict, list)) else [x] for x in items]
    keys = ("p", "coeffs", "min_exp", "z\"q", "\u00fc", "a\nb", "fox_ideal_gamma", "")
    return {k: _random_payload(rng, depth - 1) for k in rng.sample(keys, rng.randint(0, 4))}


class TestIndented:
    def test_matches_json_dumps_indent_2_on_random_payloads(self):
        rng = random.Random(27)
        walked_lists = 0
        for _ in range(400):
            obj = {"module_relations": [[{"min_exp": rng.randint(-3, 3), "coeffs": _random_payload(rng, 1)}
                                         for _ in range(2)] for _ in range(3)],
                   "rest": _random_payload(rng, 4), "empty": rng.choice(([], {}, [[]], [{}]))}
            assert cli._indented(obj, "") == json.dumps(obj, sort_keys=True, indent=2), obj
            walked_lists += isinstance(obj["rest"], list) and bool(obj["rest"]) and isinstance(obj["rest"][0], (dict, list))
        assert walked_lists >= 50


GOLDEN = {entry.name: entry for entry in golden.GOLDEN}


class TestGolden:
    """The pinned stdout of tests/golden.py, which also runs it with no
    test framework; every entry of its table is checked here."""

    def _check(self, *names):
        for name in names:
            assert golden.digest(GOLDEN[name]) == GOLDEN[name].digest, name

    def test_alexander_on_every_present_form(self, tmp_path):
        for (form, p), line in golden.ALEXANDER_GOLDEN.items():
            assert golden.alexander_line(form, p, str(tmp_path)) == (0, line + "\n"), (form, p)

    def test_distinct_range_stdout_hash(self):
        self._check("distinct-range 1..19", "distinct-range 1..19 --json")

    def test_distinct_range_every_range_stdout_hash(self):
        self._check("distinct-range every range")

    def test_distinct_stdout_hash(self):
        self._check("distinct")

    def test_gamma_stdout_hash(self):
        self._check("gamma 1..30", "gamma 1..30 --json")

    def test_wp_stdout_hash(self):
        self._check("wp")

    def test_report_verbs_stdout_hash(self):
        self._check("verify-tau, fold and selftest")

    def test_every_entry_is_checked(self):
        source = inspect.getsource(TestGolden)
        assert [name for name in GOLDEN if f'"{name}"' not in source] == []

    def test_verify_tau_verdicts(self):
        for p in range(2, 6):
            code, text = capture(["verify-tau", "--p", str(p)])
            assert code == 0
            assert text.splitlines()[-3:] == [
                "quotient abelianization infinite cyclic: yes",
                "quotient alexander polynomial: 1",
                "verdict: VERIFIED",
            ]


class TestVerbs:
    def test_present_wirtinger(self):
        code, text = capture(["present", "--p", "2"])
        assert code == 0
        assert text == (
            "gens: z a1 a2\n"
            "rel: z a1^-1 a2^-1 a1^-1\n"
            "rel: z a1 z^-1 a2^-1\n"
            "rel: z a2 z^-1 a1^-1\n"
        )

    def test_present_forms(self):
        for form in ("wirtinger", "standard", "gamma", "gamma-tab", "double"):
            code, text = capture(["present", "--p", "2", "--form", form])
            assert code == 0
            assert text.startswith("gens:")

    def test_present_invalid_p(self):
        code, _ = capture(["present", "--p", "1", "--form", "wirtinger"])
        assert code == 2

    def test_alexander_file(self, tmp_path):
        _, text = capture(["present", "--p", "3"])
        path = tmp_path / "w3.txt"
        path.write_text(text, encoding="utf-8")
        code, out = capture(["alexander", "--file", str(path)])
        assert code == 0
        assert out == "1 -1 0 1 0 -1 1\n"

    def test_alexander_missing_file(self, tmp_path):
        code, _ = capture(["alexander", "--file", str(tmp_path / "nope.txt")])
        assert code == 2

    def test_alexander_refuted_on_rank_two(self, tmp_path):
        path = tmp_path / "free2.txt"
        path.write_text("gens: x y\n", encoding="utf-8")
        code, _ = capture(["alexander", "--file", str(path)])
        assert code == 1

    def test_alexander_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text in ("rel: x\n", "gens: x y\nrel: x^" + "0" * 5000 + " y\n"):
            path.write_text(text, encoding="utf-8")
            code, _ = capture(["alexander", "--file", str(path)])
            assert code == 2

    def test_alexander_file_not_utf8_is_a_usage_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"gens: x y\nrel: x^2 y^\xff3\n")
        assert capture(["alexander", "--file", str(path)]) == (2, "")

    def test_distinct_valid(self):
        code, text = capture(["distinct", "--p", "2", "--k", "3"])
        assert code == 0
        assert "valid: yes" in text

    def test_distinct_json(self):
        code, text = capture(["distinct", "--p", "2", "--k", "3", "--json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["valid"] is True and obj["phi_index"] == 12

    def test_distinct_bad_pair(self):
        code, _ = capture(["distinct", "--p", "3", "--k", "2"])
        assert code == 2

    def test_distinct_range(self):
        code, text = capture(["distinct-range", "--min", "1", "--max", "5"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[-1] == "summary: 10/10 certificates valid"
        pairs = [
            (int(line.split()[0][2:]), int(line.split()[1][2:]))
            for line in lines[:-1]
        ]
        assert pairs == sorted(pairs)

    def test_distinct_range_json(self):
        code, text = capture(["distinct-range", "--min", "2", "--max", "4", "--json"])
        assert code == 0
        objs = json.loads(text)
        assert len(objs) == 3
        assert all(o["valid"] for o in objs)

    def test_verify_tau(self):
        code, text = capture(["verify-tau", "--p", "2"])
        assert code == 0
        assert "verdict: VERIFIED" in text

    def test_fold(self):
        code, text = capture(["fold", "--p", "3"])
        assert code == 0
        assert "verdict: HOMOMORPHISM, SURJECTIVE" in text

    def test_fold_huge_p(self):
        # every image is a power of one syllable, so the fold's cost does
        # not grow with p
        code, text = capture(["fold", "--p", "100000000"])
        assert code == 0
        assert text.splitlines()[-1] == "verdict: HOMOMORPHISM, SURJECTIVE"

    def test_wp_trivial(self):
        code, text = capture(["wp", "--p", "2", "--q", "3", "--word", "x^2 y^-3"])
        assert code == 0
        assert text == "trivial\n"

    def test_wp_commutator(self):
        code, text = capture(["wp", "--p", "2", "--q", "3", "--word", "x y x^-1 y^-1"])
        assert code == 0
        assert text == "c^-2 x y x y^2\n"

    def test_wp_bad_word(self):
        code, _ = capture(["wp", "--p", "2", "--q", "3", "--word", "x^0"])
        assert code == 2
        code, _ = capture(["wp", "--p", "2", "--q", "3", "--word", "q"])
        assert code == 2
        for exp in ("9" * 5000, "0" * 5000):
            code, _ = capture(["wp", "--p", "2", "--q", "3", "--word", "y x^" + exp])
            assert code == 2

    def test_wp_bad_params(self):
        code, _ = capture(["wp", "--p", "2", "--q", "4", "--word", "x"])
        assert code == 2

    def test_gamma_text_and_json(self):
        code, text = capture(["gamma", "--p", "2"])
        assert code == 0
        assert "order ideal generators:" in text
        code, text = capture(["gamma", "--p", "2", "--json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["fox_tab_matches_order_ideal"] is True
        assert obj["fox_gamma_gcd_equals_annihilator"] is True

    def test_gamma_exits_1_when_a_cross_check_fails(self, monkeypatch):
        art = gamma_artifacts(2)
        for flag in ("fox_tab_matches_order_ideal", "fox_gamma_gcd_equals_annihilator"):
            broken = dataclasses.replace(art, **{flag: False})
            monkeypatch.setattr(cli, "gamma_artifacts", lambda p: broken)
            code, text = capture(["gamma", "--p", "2"])
            assert code == 1, flag
            assert text.count(": no\n") == 1, flag
            code, text = capture(["gamma", "--p", "2", "--json"])
            assert code == 1, flag
            assert json.loads(text)[flag] is False

    def test_selftest_runs_every_criterion(self):
        code, text = capture(["selftest"])
        assert code == 0
        lines = text.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == 8
        assert lines[-1] == "selftest: all criteria passed"

    def test_usage_errors(self):
        assert capture(["frobnicate"])[0] == 2
        assert capture([])[0] == 2
        assert capture(["distinct", "--p", "2"])[0] == 2
        assert capture(["gamma", "--p", "0"])[0] == 2
        assert capture(["verify-tau", "--p", "1"])[0] == 2
        assert capture(["distinct-range", "--min", "5", "--max", "3"]) == (2, "")

    def test_determinism(self):
        for argv in (
            ["gamma", "--p", "2"],
            ["distinct", "--p", "2", "--k", "4", "--json"],
            ["present", "--p", "3", "--form", "double"],
            ["distinct-range", "--min", "1", "--max", "4"],
        ):
            assert capture(argv) == capture(argv)


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, monkeypatch, tmp_path):
        # run builds its parser once; a parse error, a usage error raised by
        # a verb or a flag set in one call must not carry into the next.
        path = tmp_path / "tall.txt"
        path.write_text("gens: x y\nrel: x^5 y^-6\n", encoding="utf-8")
        argvs = [
            ["distinct", "--p", "2", "--k", "3", "--json"],
            ["distinct", "--p", "2"],
            ["distinct", "--p", "2", "--k", "3"],
            ["frobnicate"],
            ["alexander", "--file", str(path)],
            ["gamma", "--p", "0"],
            ["wp", "--p", "2", "--q", "3", "--word", "x^2 y^-3"],
            ["present", "--p", "2", "--form", "double"],
            [],
            ["distinct-range", "--min", "1", "--max", "4"],
        ]
        reused = [capture(argv) for argv in argvs]
        assert cli._parser is not None
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_parser", cli.build_parser())
            fresh.append(capture(argv))
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 2, 0, 2, 0, 2, 0, 0, 2, 0]


# A process starts with the peak RSS of the one it was forked from as its
# own ru_maxrss (Linux folds the old address space's peak in at exec), so a
# child of this test process would read its growth against pytest's peak.
# The child is therefore started by a small interpreter in between.
_LAUNCH = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
)


def _child_env() -> dict:
    """The environment of a child interpreter that imports this knotcert."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(knotcert.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _child(script: str) -> str:
    """Run script in a fresh interpreter that imports this knotcert; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH, script],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestFootprint:
    def test_importing_the_cli_leaves_acceptance_unloaded(self):
        # Only selftest needs the acceptance suite, so only it imports it.
        script = "import sys, knotcert.cli; print('knotcert.acceptance' in sys.modules)"
        assert _child(script) == "False\n"

    def test_sweep_memory_does_not_grow_with_the_pairs(self):
        # The sweep writes each certificate as it is made: 179 700 pairs to
        # 600 took about 63 MB of peak RSS past the warm-up when they were
        # listed first, and take well under 1 MB streamed.
        script = """
import resource, sys
from knotcert.cli import run
class Null:
    def write(self, text):
        return len(text)
run(["distinct-range", "--min", "1", "--max", "60"], Null())
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = run(["distinct-range", "--min", "1", "--max", "600"], Null())
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(code, grown * (1 if sys.platform == "darwin" else 1024))
"""
        code, grown = map(int, _child(script).split())
        assert code == 0
        assert grown < 10 * 2**20


# alexander at e = 10 000 under a 400 MB address-space cap: the dense line
# of Delta(T(e, e + 1)) is about 2e^2 bytes, which the verb writes as runs of
# zeros and never holds; building it as one string of about 200 MB from a
# list of 10^8 strings exited 3 with MemoryError under this cap.
_CAPPED_ALEXANDER = """
import resource, sys
cap = 400 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from knotcert.cli import run
sys.exit(run(["alexander", "--file", sys.argv[1]]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
class TestTallAlexanderOutput:
    def _run(self, tmp_path, e, stdout):
        path = tmp_path / f"tall{e}.txt"
        path.write_text(f"gens: x y\nrel: x^{e} y^-{e + 1}\n", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_ALEXANDER, str(path)],
            env=_child_env(), stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_line_at_3000_is_the_annihilator(self, tmp_path):
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            self._run(tmp_path, 3000, fh)
        line = " ".join(map(str, annihilator_poly(3000).dense_coeffs())) + "\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == hashlib.sha256(line.encode()).hexdigest()

    def test_line_at_10000_fits_under_the_cap(self, tmp_path):
        self._run(tmp_path, 10_000, subprocess.DEVNULL)
