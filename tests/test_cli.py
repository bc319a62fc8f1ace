import hashlib
import io
import json

from knotcert import cli
from knotcert.cli import (
    emit_certificate_json,
    parse_certificate_json,
    poly_from_json,
    poly_to_json,
    run,
)
from knotcert.constructions import distinctness_certificate
from knotcert.laurent import LaurentPoly


def capture(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


class TestPolyJson:
    def test_round_trip(self):
        f = LaurentPoly({-2: 3, 0: -7, 5: 1})
        assert poly_from_json(poly_to_json(f)) == f

    def test_zero(self):
        assert poly_to_json(LaurentPoly.zero()) == {"min_exp": 0, "coeffs": []}
        assert poly_from_json({"min_exp": 0, "coeffs": []}) == LaurentPoly.zero()

    def test_coefficients_are_decimal_strings(self):
        big = 10 ** 40
        obj = poly_to_json(LaurentPoly({0: big}))
        assert obj["coeffs"] == [str(big)]


class TestCertificateJson:
    def test_round_trip(self):
        for pair in ((1, 2), (2, 3), (3, 5)):
            cert = distinctness_certificate(*pair)
            assert parse_certificate_json(emit_certificate_json(cert)) == cert

    def test_deterministic(self):
        cert = distinctness_certificate(2, 3)
        assert emit_certificate_json(cert) == emit_certificate_json(cert)

    def test_fields(self):
        obj = json.loads(emit_certificate_json(distinctness_certificate(2, 3)))
        assert obj["schema_version"] == 1
        assert obj["phi_index"] == 12
        assert obj["valid"] is True
        assert obj["mode"] == "cyclotomic"
        assert obj["polynomials"]["annihilator_p"]["coeffs"] == ["1", "-1", "1"]

    def test_unit_mode_fields(self):
        obj = json.loads(emit_certificate_json(distinctness_certificate(1, 2)))
        assert obj["mode"] == "unit_ideal"
        assert obj["valid"] is True


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


class TestGolden:
    def test_alexander_on_every_present_form(self, tmp_path):
        for (form, p), line in ALEXANDER_GOLDEN.items():
            _, text = capture(["present", "--p", str(p), "--form", form])
            path = tmp_path / f"{form}-{p}.txt"
            path.write_text(text, encoding="utf-8")
            assert capture(["alexander", "--file", str(path)]) == (0, line + "\n")

    def test_distinct_range_stdout_hash(self):
        # sha256 of the stdout of the per-pair implementation, which
        # recomputed the k-side facts for every pair.
        for extra, digest in (
            ([], "d5e8bdc706327eb96168f8e9ebad6ec8a9966095639787f14807b7398eccaffe"),
            (["--json"], "cbc5211d51b59d9f181cd09e5f8ddb6e03cb6e65e972055211a0b334b0333783"),
        ):
            code, text = capture(["distinct-range", "--min", "1", "--max", "19"] + extra)
            assert code == 0
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_gamma_stdout_hash(self):
        # sha256 of the stdout of gamma --p 1..30, one command after the
        # other, from Bareiss over the Laurent ring, which multiplied and
        # divided LaurentPolys inside every determinant
        for extra, digest in (
            ([], "aea0bd7d0939c35f8fa9a393bc7e2c8ae0dbede600b4334796f13ba61c44aba6"),
            (["--json"], "d225fab16df462769185136fb141f9bc7d32828cf18c2db645160f5f8e95f73f"),
        ):
            h = hashlib.sha256()
            for p in range(1, 31):
                code, text = capture(["gamma", "--p", str(p)] + extra)
                assert code == 0
                h.update(text.encode("utf-8"))
            assert h.hexdigest() == digest

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
        path.write_text("rel: x\n", encoding="utf-8")
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
