"""Command-line frontend: tangent reports, classes, Demazure products, verify.

Exit codes: 0 success, 1 domain error or verification failure, 2 usage error.
All machine output is JSON with a top-level schema_version and sorted keys,
so identical invocations are byte-identical; wall-clock diagnostics go to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import KltangentError
from .hecke import demazure_product
from .rootsys import CartanType, RootSystem, build_root_system, format_root
from .rt_ring import LaurentPoly
from .subword import boundary_faces, build_complex, euler_characteristics
from .tangent import (
    TangentReport,
    cominuscule_witness,
    gp_tangent_report,
    kclass_restriction,
    kl_tangent_report,
)
from .weyl import canonical_reduced_word, is_reduced, parse_word, word_to_element

SCHEMA_VERSION = 2


def _dump(payload: dict) -> str:
    """JSON for a payload of plain values; tuples serialize as lists."""
    return json.dumps({**payload, "schema_version": SCHEMA_VERSION}, sort_keys=True, ensure_ascii=False)


def _root_json(rs: RootSystem, v) -> dict:
    return {"coeffs": list(v), "str": format_root(rs, v)}


def _poly_json(p: LaurentPoly) -> list[dict]:
    return [{"exponent": list(e), "coeff": str(c)} for e, c in p.items()]


def _poly_str(rs: RootSystem, p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for exponent, coeff in sorted(p.items(), key=lambda item: (-sum(item[0]), item[0])):
        monomial = "1" if not any(exponent) else f"e^{{{format_root(rs, exponent)}}}"
        magnitude = "" if abs(coeff) == 1 or monomial == "1" else f"{abs(coeff)}*"
        body = f"{abs(coeff)}" if monomial == "1" else f"{magnitude}{monomial}"
        parts.append(("- " if coeff < 0 else ("+ " if parts else "")) + body)
    return " ".join(parts)


def _report_payload(rs: RootSystem, report: TangentReport) -> dict:
    gamma_json = {g: _root_json(rs, g) for g in report.gamma.gammas}  # each gamma formatted once
    return {
        "cartan_type": str(rs.cartan_type),
        "x_word": list(report.x_word),
        "x_length": len(report.x_word),
        "w_word": list(canonical_reduced_word(rs, report.w)),
        "w_length": report.w.length,
        "parabolic": sorted(report.parabolic) if report.parabolic is not None else None,
        "gamma": list(gamma_json.values()),
        "statuses": [
            {
                "position": st.position,
                "gamma": gamma_json[st.gamma],
                "status": st.verdict.value,
                "evidence": {
                    "indecomposable": st.evidence.indecomposable,
                    "demazure_ok": st.evidence.demazure_ok,
                    "ordinary_product_ok": st.evidence.ordinary_product_ok,
                    "cone_coefficient": st.evidence.cone_coefficient,
                },
            }
            for st in report.statuses
        ],
        "kl_tangent_weights": [gamma_json[v] for v in sorted(report.kl_tangent_weights)],
        "schubert_extra_weights": [_root_json(rs, v) for v in sorted(report.schubert_extra_weights)],
        "complete": report.complete,
    }


def _print_report(rs: RootSystem, report: TangentReport) -> None:
    print(f"type {rs.cartan_type}   x = {' '.join(map(str, report.x_word))}   "
          f"w = {' '.join(map(str, canonical_reduced_word(rs, report.w)))}"
          + (f"   P = {sorted(report.parabolic)}" if report.parabolic else ""))
    for st in report.statuses:
        ev = st.evidence
        notes = [
            f"demazure={'yes' if ev.demazure_ok else 'no'}",
            f"ordinary={'yes' if ev.ordinary_product_ok else 'no'}",
        ]
        if not ev.indecomposable:
            notes.append("decomposable")
        if ev.cone_coefficient is not None:
            notes.append(f"cone-coeff={ev.cone_coefficient}")
        print(f"  j={st.position:2d}  gamma={format_root(rs, st.gamma):16s} {st.verdict.value:12s} "
              f"({', '.join(notes)})")
    kl = ", ".join(format_root(rs, v) for v in sorted(report.kl_tangent_weights)) or "(none)"
    extra = ", ".join(format_root(rs, v) for v in sorted(report.schubert_extra_weights)) or "(none)"
    print(f"  KL tangent weights: {kl}")
    print(f"  Schubert extra weights: {extra}")
    print(f"  complete: {report.complete}")


def _cmd_tangent(args) -> int:
    rs = build_root_system(args.type)
    x = word_to_element(rs, parse_word(args.x))
    w = word_to_element(rs, parse_word(args.w))
    if args.parabolic is not None:
        report = gp_tangent_report(rs, w, x, args.parabolic, use_type_a_oracle=args.type_a_oracle,
                                   include_cone_evidence=args.cone_evidence)
    else:
        report = kl_tangent_report(rs, w, x, use_type_a_oracle=args.type_a_oracle,
                                   include_cone_evidence=args.cone_evidence)
    if args.json:
        print(_dump(_report_payload(rs, report)))
    else:
        _print_report(rs, report)
    return 0


def _cmd_kclass(args) -> int:
    rs = build_root_system(args.type)
    s = parse_word(args.x)
    if not is_reduced(rs, s):
        s = canonical_reduced_word(rs, word_to_element(rs, s))
    w = word_to_element(rs, parse_word(args.w))
    poly = kclass_restriction(rs, w, s)
    if args.json:
        print(_dump({
            "cartan_type": str(rs.cartan_type),
            "x_word": list(s),
            "w_word": list(canonical_reduced_word(rs, w)),
            "kclass": _poly_json(poly),
        }))
    else:
        print(_poly_str(rs, poly))
    return 0


def _cmd_demazure(args) -> int:
    rs = build_root_system(args.type)
    word = parse_word(args.word)
    stats = demazure_product(rs, word)
    print(_dump({
        "cartan_type": str(rs.cartan_type),
        "word": list(word),
        "delta_word": list(canonical_reduced_word(rs, stats.delta)),
        "delta_length": stats.delta.length,
        "excess": stats.excess,
    }))
    return 0


def _cmd_subword_complex(args) -> int:
    rs = build_root_system(args.type)
    word = parse_word(args.word)
    target = word_to_element(rs, parse_word(args.target))
    complex_ = build_complex(rs, target, word)
    reduced, interior = euler_characteristics(complex_)
    print(_dump({
        "cartan_type": str(rs.cartan_type),
        "word": list(word),
        "target_word": list(canonical_reduced_word(rs, target)),
        "faces": [list(f) for f in complex_.faces],
        "facets": [list(f) for f in complex_.facets],
        "boundary": [list(f) for f in boundary_faces(complex_)],
        "dimension": complex_.dimension,
        "euler_reduced": reduced,
        "euler_interior": interior,
    }))
    return 0


def _cmd_cominuscule(args) -> int:
    rs = build_root_system(args.type)
    x = word_to_element(rs, parse_word(args.x))
    witness = cominuscule_witness(rs, x)
    if args.json:
        print(_dump({
            "cartan_type": str(rs.cartan_type),
            "x_word": list(canonical_reduced_word(rs, x)),
            "cominuscule": witness is not None,
            "witness": [str(c) for c in witness] if witness is not None else None,
        }))
    else:
        if witness is None:
            print("cominuscule: no")
        else:
            print(f"cominuscule: yes  (witness in coweight coordinates: {[str(c) for c in witness]})")
    return 0


def _outcome_payload(outcome) -> dict:  # a verify.VerifyOutcome
    return {"suite": outcome.suite, "cases": outcome.cases, "failures": outcome.failures}


def _cmd_verify(args) -> int:
    from .verify import VerifyConfig, run_battery  # only this subcommand pays for the import

    given = {"random_cases": args.random_cases, "seed": args.seed}
    config = VerifyConfig(**{name: value for name, value in given.items() if value is not None})
    all_ok = True
    for label in args.type:
        outcomes = run_battery(label, config)
        ok = all(o.ok for o in outcomes)
        all_ok = all_ok and ok
        for o in outcomes:
            print(f"[{'ok' if o.ok else 'FAIL'}] {o.suite}: {o.cases} cases, "
                  f"{len(o.failures)} failures ({o.seconds:.4f}s)", file=sys.stderr)
        if args.json:
            print(_dump({
                "cartan_type": str(CartanType.parse(label)),
                "ok": ok,
                "outcomes": [_outcome_payload(o) for o in outcomes],
            }))
        else:
            for o in outcomes:
                print(f"[{'ok' if o.ok else 'FAIL'}] {o.suite}: {o.cases} cases, {len(o.failures)} failures")
                for failure in o.failures[:10]:
                    print(f"    {failure}")
            print("all suites passed" if ok else "FAILURES detected")
    return 0 if all_ok else 1


def _node_list(text: str) -> frozenset[int]:
    """Parse a comma- or space-separated list of Dynkin node numbers."""
    try:
        return frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected node numbers like \"1,3\", got {text!r}") from None


def _positive_int(text: str) -> int:
    """Parse a count of at least 1."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _tangent_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("--x", required=True, help='reduced word for x, e.g. "1 2 1" or "s1 s2 s1"')
    p.add_argument("--w", required=True, help="word for w")
    p.add_argument("--parabolic", type=_node_list,
                   help="comma-separated parabolic generator nodes (G/P report)")
    p.add_argument("--type-a-oracle", action="store_true",
                   help="decide decomposable positions with the type-A ordinary-product criterion")
    p.add_argument("--cone-evidence", action="store_true",
                   help="attach tangent-cone coefficients to Undetermined positions")
    p.add_argument("--json", action="store_true")


def _kclass_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("--x", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--json", action="store_true")


def _demazure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("word")


def _subword_complex_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("target")


def _cominuscule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("--x", required=True)
    p.add_argument("--json", action="store_true")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("type", nargs="+", help="one or more Cartan types, checked in order")
    # Omitted values fall back to VerifyConfig's defaults.
    p.add_argument("--random-cases", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")


# name -> (help, adder of the subcommand's arguments, handler)
_COMMANDS = {
    "tangent": ("tangent-weight report at a fixed point", _tangent_args, _cmd_tangent),
    "kclass": ("localized structure-sheaf class P_{w,s}", _kclass_args, _cmd_kclass),
    "demazure": ("Demazure product and excess of a word", _demazure_args, _cmd_demazure),
    "subword-complex": ("faces/facets/boundary/Euler data", _subword_complex_args, _cmd_subword_complex),
    "cominuscule": ("cominuscule test for a Weyl element", _cominuscule_args, _cmd_cominuscule),
    "verify": ("run the exhaustive verification battery", _verify_args, _cmd_verify),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kltangent",
                                     description="Exact tangent-space weights of Schubert varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, building only the named subcommand's parser when it can.

    The full tree hands everything after the command name to that
    subcommand's parser through ``parse_known_args``, under the prog
    ``kltangent <name>``, and then refuses any leftover argument itself.  A
    standalone parser with the same prog and arguments therefore prints the
    same help and the same errors; only leftovers are worded by the full
    tree, so they go back to it.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        _, add_arguments, handler = command
        parser = argparse.ArgumentParser(prog=f"kltangent {argv[0]}")
        add_arguments(parser)
        parser.set_defaults(command=argv[0], func=handler)
        args, leftover = parser.parse_known_args(argv[1:])
        if not leftover:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except KltangentError as exc:
        if getattr(args, "json", False):
            print(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        else:
            print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
