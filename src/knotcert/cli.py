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

from .constructions import (
    BadPair,
    DistinctnessCertificate,
    InvalidP,
    MismatchError,
    annihilator_poly,
    distinctness_certificate,
    double_presentation,
    fold_report,
    gamma_artifacts,
    gamma_presentation,
    gamma_tab_presentation,
    iter_distinctness_certificates,
    standard_presentation,
    tau_report,
    torus_wirtinger,
)
from .fileformat import (
    PresentationSyntaxError,
    UnknownGenerator,
    ZeroExponent,
    parse_presentation,
    parse_syllables,
    presentation_to_text,
)
from .fox import BrokenInvariant, NotInfiniteCyclicAbelianization, alexander_polynomial
from .laurent import LaurentPoly, cyclotomic
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


def certificate_payload(cert: DistinctnessCertificate, poly_p, poly_k, phi) -> dict:
    """The schema-1 JSON object of a certificate, before serialization.
    poly_p, poly_k and phi are the JSON values of annihilator_poly(cert.p),
    annihilator_poly(cert.k) and cyclotomic(cert.phi_index): poly_to_json
    objects, or _Fragment texts of them that a sweep renders once each."""
    return {
        "schema_version": 1,
        "p": cert.p,
        "k": cert.k,
        "mode": cert.mode,
        "phi_index": cert.phi_index,
        "divides_in_k": cert.divides_in_k,
        "divides_in_p": cert.divides_in_p,
        "valid": cert.valid,
        "polynomials": {"annihilator_p": poly_p, "annihilator_k": poly_k, "phi": phi},
    }


class _Fragment(str):
    """JSON text already indented for the place it is written at."""


def _indented(obj, pad: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for obj nested at
    indentation pad, with a _Fragment written as it is.  Dicts, and lists
    whose first item is a dict or a list (a CLI list holds only containers
    or only scalars), are walked here; a list of scalars takes one compact
    C json.dumps call, where indent=2 would take the pure-Python encoder."""
    inner = pad + "  "
    if isinstance(obj, _Fragment):
        return obj
    if isinstance(obj, dict) and obj:
        items = ",\n".join(
            f"{inner}{json.dumps(key)}: {_indented(obj[key], inner)}" for key in sorted(obj)
        )
        return f"{{\n{items}\n{pad}}}"
    if isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        items = ",\n".join(inner + _indented(x, inner) for x in obj)
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, list) and obj:
        items = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        return f"[\n{inner}{items}\n{pad}]"
    return json.dumps(obj)


def _certificate_writer(pad: str):
    """The writer of every certificate's JSON: a function from a
    certificate to json.dumps(certificate_payload(...), sort_keys=True,
    indent=2) nested at indentation pad.  It builds and renders
    annihilator_poly(j) and cyclotomic(n) once for each j and n it meets
    and reuses the fragment in every later certificate that shows it."""
    fragments = {}

    def fragment(build, n):
        if (build, n) not in fragments:
            fragments[build, n] = _Fragment(_indented(poly_to_json(build(n)), pad + "    "))
        return fragments[build, n]

    return lambda cert: _indented(certificate_payload(
        cert,
        fragment(annihilator_poly, cert.p),
        fragment(annihilator_poly, cert.k),
        fragment(cyclotomic, cert.phi_index),
    ), pad)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _coeff_pieces(poly: LaurentPoly):
    """The pieces of poly's coefficient line, from min_exp to max_exp,
    whose concatenation is " ".join(map(str, poly.dense_coeffs())): the
    lowest coefficient, then for each later term its gap of zeros and its
    coefficient, so work and memory go with the nonzero terms, not the span
    (nothing for the zero polynomial)."""
    terms = poly.items()
    if terms:
        yield str(terms[0][1])
    for (prev, _), (e, c) in zip(terms, terms[1:]):
        yield f" {'0 ' * (e - prev - 1)}{c}"


def _coeff_line(poly: LaurentPoly) -> str:
    return "".join(_coeff_pieces(poly)) if poly else "0"


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
    delta = alexander_polynomial(pres)
    out.writelines(_coeff_pieces(delta))
    out.write("\n")
    return 0


def _certificate_text(cert: DistinctnessCertificate) -> str:
    lines = [
        f"distinctness certificate (p={cert.p}, k={cert.k})",
        f"mode: {cert.mode}",
        f"phi index: {cert.phi_index}",
        f"phi: {cyclotomic(cert.phi_index)}",
        f"annihilator(p={cert.p}): {annihilator_poly(cert.p)}",
        f"annihilator(k={cert.k}): {annihilator_poly(cert.k)}",
        "phi divides annihilator(k) and (t-1)*annihilator(k): "
        + _yesno(cert.divides_in_k),
        f"phi divides annihilator(p): {_yesno(cert.divides_in_p)}",
        f"valid: {_yesno(cert.valid)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_distinct(args, out) -> int:
    cert = distinctness_certificate(args.p, args.k)
    if args.json:
        out.write(_certificate_writer("")(cert) + "\n")
    else:
        out.write(_certificate_text(cert))
    return 0 if cert.valid else 1


def _cmd_distinct_range(args, out) -> int:
    # Each certificate is written as it arrives, the JSON array as
    # json.dumps(list, indent=2) would write it, so memory stays O(max).
    write = _certificate_writer("  ") if args.json else None
    count = valid = 0
    for c in iter_distinctness_certificates(args.min, args.max):
        if write:
            out.write(("[\n  " if count == 0 else ",\n  ") + write(c))
        else:
            out.write(
                f"p={c.p} k={c.k} mode={c.mode} phi_index={c.phi_index} "
                f"valid={_yesno(c.valid)}\n"
            )
        count += 1
        valid += c.valid
    if write:
        out.write("\n]\n" if count else "[]\n")
    else:
        out.write(f"summary: {valid}/{count} certificates valid\n")
    return 0 if valid == count else 1


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
        out.write(_indented(payload, "") + "\n")
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
    syllables = parse_syllables(args.word, {"x", "y"})
    out.write(str(normal_form(tk, syllables)) + "\n")
    return 0


def _cmd_selftest(args, out) -> int:
    # Imported here, so that only selftest compiles and runs the module.
    from . import acceptance

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
