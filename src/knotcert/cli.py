"""Command-line interface.

Verbs: present, alexander, gamma, distinct, distinct-range, verify-tau,
fold, wp, selftest.  Results go to stdout, diagnostics to stderr.

Exit codes: 0 output produced / every check verified; 1 a mathematical
check was refuted; 2 usage or parse error; 3 internal invariant
violation.  Identical argument lists produce byte-identical stdout; no
floating point is involved anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .constructions import (
    BadPair,
    DistinctnessCertificate,
    InvalidP,
    MismatchError,
    distinctness_certificate,
    distinctness_certificates,
    double_presentation,
    fold_report,
    gamma_artifacts,
    gamma_presentation,
    gamma_tab_presentation,
    standard_presentation,
    tau_report,
    torus_wirtinger,
)
from .fileformat import (
    PresentationSyntaxError,
    UnknownGenerator,
    ZeroExponent,
    parse_presentation,
    parse_word,
    presentation_to_text,
)
from .fox import BrokenInvariant, NotInfiniteCyclicAbelianization, alexander_polynomial
from .laurent import LaurentPoly
from .torus import BadParams, TorusKnotParams, normal_form
from .words import ForeignGenerator

USAGE_ERRORS = (
    PresentationSyntaxError,
    UnknownGenerator,
    ZeroExponent,
    InvalidP,
    BadPair,
    BadParams,
    ForeignGenerator,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    UnicodeDecodeError,
)


def _coeff_strs(poly: LaurentPoly) -> list[str]:
    """Decimal coefficients of a nonzero poly from min_exp to max_exp;
    str runs at the nonzero terms only."""
    lo = poly.min_exp()
    strs = ["0"] * (poly.max_exp() - lo + 1)
    for e, c in poly.items():
        strs[e - lo] = str(c)
    return strs


def poly_to_json(poly: LaurentPoly) -> dict:
    """{"min_exp": int, "coeffs": decimal strings, ascending, dense}."""
    if poly.is_zero():
        return {"min_exp": 0, "coeffs": []}
    return {"min_exp": poly.min_exp(), "coeffs": _coeff_strs(poly)}


def certificate_payload(cert: DistinctnessCertificate) -> dict:
    """The schema-1 JSON object of a certificate, before serialization."""
    return {
        "schema_version": 1,
        "p": cert.p,
        "k": cert.k,
        "mode": cert.mode,
        "phi_index": cert.phi_index,
        "divides_in_k": cert.divides_in_k,
        "divides_in_p": cert.divides_in_p,
        "valid": cert.valid,
        "polynomials": {
            "annihilator_p": poly_to_json(cert.poly_p),
            "annihilator_k": poly_to_json(cert.poly_k),
            "phi": poly_to_json(cert.phi),
        },
    }


def emit_certificate_json(cert: DistinctnessCertificate) -> str:
    return json.dumps(certificate_payload(cert), sort_keys=True, indent=2)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _coeff_line(poly: LaurentPoly) -> str:
    return " ".join(_coeff_strs(poly)) if poly else "0"


def _cmd_present(args, out) -> int:
    builders = {
        "wirtinger": lambda p: torus_wirtinger(p),
        "standard": lambda p: standard_presentation(p, p + 1),
        "gamma": gamma_presentation,
        "gamma-tab": gamma_tab_presentation,
        "double": lambda p: double_presentation(p)[0],
    }
    pres = builders[args.form](args.p)
    out.write(presentation_to_text(pres))
    return 0


def _cmd_alexander(args, out) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    out.write(_coeff_line(alexander_polynomial(pres)) + "\n")
    return 0


def _certificate_text(cert: DistinctnessCertificate) -> str:
    lines = [
        f"distinctness certificate (p={cert.p}, k={cert.k})",
        f"mode: {cert.mode}",
        f"phi index: {cert.phi_index}",
        f"phi: {cert.phi}",
        f"annihilator(p={cert.p}): {cert.poly_p}",
        f"annihilator(k={cert.k}): {cert.poly_k}",
        "phi divides annihilator(k) and (t-1)*annihilator(k): "
        + _yesno(cert.divides_in_k),
        f"phi divides annihilator(p): {_yesno(cert.divides_in_p)}",
        f"valid: {_yesno(cert.valid)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_distinct(args, out) -> int:
    cert = distinctness_certificate(args.p, args.k)
    if args.json:
        out.write(emit_certificate_json(cert) + "\n")
    else:
        out.write(_certificate_text(cert))
    return 0 if cert.valid else 1


def _cmd_distinct_range(args, out) -> int:
    certs = distinctness_certificates(args.min, args.max)
    if args.json:
        out.write(
            json.dumps([certificate_payload(c) for c in certs], sort_keys=True, indent=2)
            + "\n"
        )
    else:
        for c in certs:
            out.write(
                f"p={c.p} k={c.k} mode={c.mode} phi_index={c.phi_index} "
                f"valid={_yesno(c.valid)}\n"
            )
        valid = sum(1 for c in certs if c.valid)
        out.write(f"summary: {valid}/{len(certs)} certificates valid\n")
    return 0 if all(c.valid for c in certs) else 1


def _cmd_gamma(args, out) -> int:
    art = gamma_artifacts(args.p)
    rel = art.module_relations
    if args.json:
        payload = {
            "p": art.p,
            "presentation": presentation_to_text(art.presentation),
            "tab_presentation": presentation_to_text(art.tab_presentation),
            "degree_map": art.degree_map,
            "annihilator": poly_to_json(art.p_poly),
            "module_relations": [
                [poly_to_json(rel.entry(i, j)) for j in range(rel.cols)]
                for i in range(rel.rows)
            ],
            "order_ideal": [poly_to_json(g) for g in art.order_ideal],
            "fox_ideal_tab": [poly_to_json(g) for g in art.fox_ideal_tab],
            "fox_ideal_gamma": [poly_to_json(g) for g in art.fox_ideal_gamma],
            "fox_tab_matches_order_ideal": art.fox_tab_matches_order_ideal,
            "fox_gamma_gcd_equals_annihilator": art.fox_gamma_gcd_equals_annihilator,
        }
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0 if art.ok else 1
    out.write(f"artifacts for p = {art.p}\n\n")
    out.write("four-generator presentation:\n")
    out.write(presentation_to_text(art.presentation))
    out.write(
        "degree map: "
        + " ".join(f"{g}={d}" for g, d in art.degree_map.items())
        + "\n\n"
    )
    out.write("three-generator presentation (t = x y, a = t^p v, b = t^p y):\n")
    out.write(presentation_to_text(art.tab_presentation))
    out.write("\n")
    out.write(f"annihilator polynomial: {art.p_poly}\n")
    out.write(f"  coefficients (ascending from t^0): {_coeff_line(art.p_poly)}\n\n")
    out.write("module relation matrix (columns a, b):\n")
    for i in range(rel.rows):
        out.write(
            "  [" + ", ".join(str(rel.entry(i, j)) for j in range(rel.cols)) + "]\n"
        )
    out.write("\norder ideal generators:\n")
    for g in art.order_ideal:
        out.write(f"  {g}\n")
    out.write("\nfox-calculus cross-checks:\n")
    out.write(
        "  elementary ideal E1 of the three-generator presentation matches "
        f"the order ideal: {_yesno(art.fox_tab_matches_order_ideal)}\n"
    )
    out.write(
        "  gcd of E1 of the four-generator presentation equals the "
        f"annihilator: {_yesno(art.fox_gamma_gcd_equals_annihilator)}\n"
    )
    return 0 if art.ok else 1


def _cmd_verify_tau(args, out) -> int:
    r = tau_report(args.p)
    out.write(f"tau = {r.tau}\n")
    out.write(f"exponent sums all zero: {_yesno(r.exponent_sums_zero)}\n")
    out.write(f"image in the torus knot group: {r.image}\n")
    out.write(f"image normal form: {r.image_nf}\n")
    out.write(f"image nontrivial: {_yesno(r.image_nontrivial)}\n")
    out.write(f"image lies in the commutator subgroup: {_yesno(r.in_commutator)}\n")
    out.write(f"quotient abelianization infinite cyclic: {_yesno(r.infinite_cyclic)}\n")
    alexander = "undefined" if r.alexander is None else str(r.alexander)
    out.write(f"quotient alexander polynomial: {alexander}\n")
    out.write("verdict: " + ("VERIFIED" if r.ok else "REFUTED") + "\n")
    return 0 if r.ok else 1


def _cmd_fold(args, out) -> int:
    p = args.p
    report = fold_report(p)
    out.write(f"fold u -> x, v -> y, x -> x, y -> y onto <x, y | x^{p} y^{p + 1}>\n")
    for check in report.relator_checks:
        image = str(check.image) if not check.image.is_identity() else "1"
        status = "trivial" if check.trivial else f"NONTRIVIAL ({check.normal_form})"
        out.write(f"relator {check.relator} maps to {image}: {status}\n")
    out.write(f"images reach x: {_yesno(report.hits_x)}\n")
    out.write(f"images reach y: {_yesno(report.hits_y)}\n")
    verdict = "HOMOMORPHISM, SURJECTIVE" if report.surjective else "REFUTED"
    out.write(f"verdict: {verdict}\n")
    return 0 if report.surjective else 1


def _cmd_wp(args, out) -> int:
    tk = TorusKnotParams(args.p, args.q)
    word = parse_word(args.word, {"x", "y"})
    out.write(str(normal_form(tk, word)) + "\n")
    return 0


def _cmd_selftest(args, out) -> int:
    ok = acceptance.run_all(lambda line: out.write(line + "\n"))
    out.write("selftest: " + ("all criteria passed" if ok else "FAILURES") + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcert",
        description="Exact group-theoretic certificates for the doubled "
        "torus-knot family.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("present", help="print a presentation file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument(
        "--form",
        choices=("wirtinger", "standard", "gamma", "gamma-tab", "double"),
        default="wirtinger",
    )
    sp.set_defaults(func=_cmd_present)

    sp = sub.add_parser("alexander", help="alexander polynomial of a presentation file")
    sp.add_argument("--file", required=True)
    sp.set_defaults(func=_cmd_alexander)

    sp = sub.add_parser("gamma", help="full artifact bundle for one p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_gamma)

    sp = sub.add_parser("distinct", help="distinctness certificate for a pair p < k")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_distinct)

    sp = sub.add_parser("distinct-range", help="certificates for all pairs in a range")
    sp.add_argument("--min", type=int, required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_distinct_range)

    sp = sub.add_parser("verify-tau", help="consequence suite for the seam commutator")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=_cmd_verify_tau)

    sp = sub.add_parser("fold", help="verify the fold onto the torus knot group")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=_cmd_fold)

    sp = sub.add_parser("wp", help="normal form in <x, y | x^p = y^q>")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=_cmd_wp)

    sp = sub.add_parser("selftest", help="run the full acceptance suite")
    sp.set_defaults(func=_cmd_selftest)

    return parser


_parser: argparse.ArgumentParser | None = None


def run(argv: list[str], out=None) -> int:
    # The parser holds no per-call state, so it is built on the first call
    # and reused: building the whole verb tree costs more than a small verb.
    global _parser
    if _parser is None:
        _parser = build_parser()
    out = out if out is not None else sys.stdout
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInfiniteCyclicAbelianization as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return 1
    except (MismatchError, BrokenInvariant) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
