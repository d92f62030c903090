"""Command-line surface: one subcommand per library operation plus `verify`.

Exit discipline: 0 success, 1 verification/property failure (including a
`check` whose word is not a solution), 2 usage error.  JSON output is a
single document with sorted keys and integers only, so parsing it and
re-serializing it the same way is byte-identical.  Word literals are
comma-separated integers, negatives allowed; on a shell, prefix negative
literals with `--` so they are not read as options.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .bruteforce import DEFAULT_BUDGET, EnumerationQuery, enumerate_solutions
from .errors import UsageError, VerificationError
from .monomial import (
    Decomposition,
    Exhausted,
    classify_monomials,
    monomial_report,
    quadratic_roots,
)
from .numtheory import binomial_valuation, euler_phi, factorize
from .ring import Modulus, is_pm_identity
from .verification import PRESETS, render_report, run_moduli, run_preset
from .words import canonical_form, oplus, parse_word, word_matrix

FORMATS = ("text", "json", "csv")


def dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit(args, text: str, payload: dict, csv_text: str) -> None:
    if args.format == "json":
        sys.stdout.write(dump_json(payload))
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(text)


def _word_str(values) -> str:
    return ",".join(str(v) for v in values)


def _certificate_payload(certificate, full: bool) -> dict:
    payload = {"variant": certificate.variant,
               "summary": certificate.summary()}
    if not full:
        return payload
    if isinstance(certificate, Decomposition):
        payload["target"] = list(certificate.target.values)
        payload["left"] = list(certificate.left.values)
        payload["right"] = list(certificate.right.values)
        payload["rotation_note"] = certificate.rotation_note
    elif isinstance(certificate, Exhausted):
        payload["examined"] = {"lengths": [3, certificate.size - 1],
                               "roots": list(certificate.roots)}
    else:
        payload["note"] = certificate.note
    return payload


def cmd_check(args) -> int:
    modulus = Modulus(args.modulus)
    w = parse_word(args.word, modulus)
    matrix = word_matrix(w)
    sign = is_pm_identity(matrix)
    verdict = (f"solution with sign {sign:+d}" if sign is not None
               else "not a solution")
    text = (f"word ({_word_str(w.values)}) mod {modulus.n}\n"
            f"matrix {matrix.rows()}\n{verdict}\n")
    payload = {"N": modulus.n, "word": list(w.values),
               "matrix": matrix.rows(),
               "solution": sign is not None,
               "sign": sign}
    rows = [[modulus.n, _word_str(w.values), sign is not None,
             "" if sign is None else sign]]
    _emit(args, text, payload, _csv_text(["N", "word", "solution", "sign"],
                                         rows))
    return 0 if sign is not None else 1


def _report_row(report) -> list:
    return [report.k, report.size, report.sign,
            "yes" if report.irreducible else "no",
            report.certificate.summary()]


def cmd_monomial(args) -> int:
    modulus = Modulus(args.modulus)
    if args.all and args.k is not None:
        raise UsageError("give either k or --all, not both")
    if not args.all and args.k is None:
        raise UsageError("give a residue k or --all")
    if args.all:
        reports = classify_monomials(modulus)
        count = sum(r.irreducible for r in reports)
        lines = [f"{'k':>4} {'size':>6} {'sign':>4} {'irr':>3}  certificate"]
        for r in reports:
            lines.append(f"{r.k:>4} {r.size:>6} {r.sign:>+4d} "
                         f"{'yes' if r.irreducible else 'no':>3}  "
                         f"{r.certificate.summary()}")
        lines.append(f"irreducible: {count} of {modulus.n}")
        payload = {"N": modulus.n, "irreducible_count": count,
                   "reports": [{"k": r.k, "size": r.size, "sign": r.sign,
                                "irreducible": r.irreducible,
                                "certificate": _certificate_payload(
                                    r.certificate, full=False)}
                               for r in reports]}
        csv_text = _csv_text(["k", "size", "sign", "irreducible",
                              "certificate"],
                             [_report_row(r) for r in reports])
        _emit(args, "\n".join(lines) + "\n", payload, csv_text)
        return 0
    k = args.k
    if not 0 <= k < modulus.n:
        raise UsageError(f"k must lie in [0, {modulus.n}), got {k}")
    r = monomial_report(modulus, k)
    text = (f"N={modulus.n} k={k}: minimal size {r.size}, sign {r.sign:+d}, "
            f"{'irreducible' if r.irreducible else 'not irreducible'}\n"
            f"certificate: {r.certificate.summary()}\n")
    payload = {"N": modulus.n, "k": k, "size": r.size, "sign": r.sign,
               "irreducible": r.irreducible,
               "certificate": _certificate_payload(r.certificate, full=True)}
    csv_text = _csv_text(["k", "size", "sign", "irreducible", "certificate"],
                         [_report_row(r)])
    _emit(args, text, payload, csv_text)
    return 0


def cmd_sum(args) -> int:
    modulus = Modulus(args.modulus)
    left = parse_word(args.left, modulus)
    right = parse_word(args.right, modulus)
    total = oplus(left, right)
    text = (f"({_word_str(left.values)}) (+) ({_word_str(right.values)}) = "
            f"({_word_str(total.values)}) mod {modulus.n}\n")
    payload = {"N": modulus.n, "left": list(left.values),
               "right": list(right.values), "sum": list(total.values)}
    csv_text = _csv_text(["N", "left", "right", "sum"],
                         [[modulus.n, _word_str(left.values),
                           _word_str(right.values),
                           _word_str(total.values)]])
    _emit(args, text, payload, csv_text)
    return 0


def cmd_canon(args) -> int:
    modulus = Modulus(args.modulus)
    w = parse_word(args.word, modulus)
    canon = canonical_form(w)
    text = f"({_word_str(canon.values)}) mod {modulus.n}\n"
    payload = {"N": modulus.n, "word": list(w.values),
               "canonical": list(canon.values)}
    csv_text = _csv_text(["N", "word", "canonical"],
                         [[modulus.n, _word_str(w.values),
                           _word_str(canon.values)]])
    _emit(args, text, payload, csv_text)
    return 0


def _budget_from_env() -> int:
    raw = os.environ.get("CWL_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CWL_BUDGET must be an integer, got {raw!r}") \
            from None


def cmd_enumerate(args) -> int:
    modulus = Modulus(args.modulus)
    query = EnumerationQuery(modulus, args.size, dedup=args.dedup,
                             count_only=args.count_only,
                             budget=_budget_from_env())
    census = enumerate_solutions(query)
    rows = [list(w.values) for w in census.words]
    lines = [f"N={modulus.n} size={census.size}: {census.total} solutions"
             + (" (canonical representatives)" if census.dedup else "")]
    lines.extend(_word_str(row) for row in rows)
    payload = {"N": modulus.n, "n": census.size, "total": census.total,
               "dedup": census.dedup, "representatives": rows}
    _emit(args, "\n".join(lines) + "\n", payload,
          _csv_text([f"a{i + 1}" for i in range(census.size)], rows))
    return 0


def cmd_roots(args) -> int:
    modulus = Modulus(args.modulus)
    if not 0 <= args.k < modulus.n:
        raise UsageError(f"k must lie in [0, {modulus.n}), got {args.k}")
    roots = quadratic_roots(modulus, args.k)
    text = (f"roots of x(x-{args.k}) mod {modulus.n}: "
            f"{_word_str(roots.roots)}\n")
    payload = {"N": modulus.n, "k": args.k, "roots": list(roots.roots)}
    csv_text = _csv_text(["x"], [[x] for x in roots.roots])
    _emit(args, text, payload, csv_text)
    return 0


def cmd_phi(args) -> int:
    value = euler_phi(args.value)
    _emit(args, f"phi({args.value}) = {value}\n",
          {"value": args.value, "phi": value},
          _csv_text(["value", "phi"], [[args.value, value]]))
    return 0


def cmd_factor(args) -> int:
    factors = factorize(args.value).factors
    text_body = " * ".join(f"{p}^{e}" if e > 1 else f"{p}"
                           for p, e in factors) or "1"
    _emit(args, f"{args.value} = {text_body}\n",
          {"value": args.value, "factors": [[p, e] for p, e in factors]},
          _csv_text(["prime", "exponent"], [[p, e] for p, e in factors]))
    return 0


def cmd_binom_val(args) -> int:
    value = binomial_valuation(args.top, args.j, args.base)
    _emit(args,
          f"largest e with {args.base}^e | C({args.top},{args.j}): {value}\n",
          {"top": args.top, "j": args.j, "base": args.base,
           "valuation": value},
          _csv_text(["top", "j", "base", "valuation"],
                    [[args.top, args.j, args.base, value]]))
    return 0


def _parse_modulus_range(raw: str) -> list[int]:
    try:
        if ".." in raw:
            lo_text, hi_text = raw.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(raw)
    except ValueError:
        raise UsageError(f"cannot parse modulus range {raw!r}; expected "
                         f"e.g. 10 or 2..6") from None
    if lo < 2 or hi < lo:
        raise UsageError(f"bad modulus range {raw!r}")
    return list(range(lo, hi + 1))


def cmd_verify(args) -> int:
    if (args.moduli is None) == (args.preset is None):
        raise UsageError("give exactly one of --N or --preset")
    if args.preset is not None:
        outcomes = run_preset(args.preset)
    else:
        outcomes = run_moduli(_parse_modulus_range(args.moduli))
    all_passed, report = render_report(outcomes)
    sys.stdout.write(report)
    return 0 if all_passed else 1


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwl",
        description="Words over Z/NZ whose matrix product is +/- identity: "
                    "checking, sums, canonical forms, minimal monomial "
                    "solutions with reducibility certificates, exhaustive "
                    "enumeration, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="matrix of a word and its solution sign")
    p.add_argument("modulus", type=int, metavar="N")
    p.add_argument("word", help="comma-separated integers")
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("monomial",
                       help="minimal monomial solution report(s)")
    p.add_argument("modulus", type=int, metavar="N")
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--all", action="store_true",
                   help="table for every k in [0, N)")
    _add_format(p)
    p.set_defaults(func=cmd_monomial)

    p = sub.add_parser("sum", help="boundary sum of two words")
    p.add_argument("modulus", type=int, metavar="N")
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("canon", help="canonical arrangement of a word")
    p.add_argument("modulus", type=int, metavar="N")
    p.add_argument("word")
    _add_format(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("enumerate",
                       help="all solutions of one size (budgeted)")
    p.add_argument("modulus", type=int, metavar="N")
    p.add_argument("size", type=int, metavar="n")
    p.add_argument("--dedup", action="store_true",
                   help="collapse to canonical representatives")
    p.add_argument("--count-only", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("roots", help="roots of x(x-k) mod N")
    p.add_argument("modulus", type=int, metavar="N")
    p.add_argument("k", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("phi", help="Euler phi")
    p.add_argument("value", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("factor", help="prime factorization")
    p.add_argument("value", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("binom-val",
                       help="largest e with base**e dividing C(top, j)")
    p.add_argument("top", type=int)
    p.add_argument("j", type=int)
    p.add_argument("base", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_binom_val)

    p = sub.add_parser("verify", help="run a deterministic check suite")
    p.add_argument("--N", dest="moduli", default=None, metavar="RANGE",
                   help="modulus or range, e.g. 10 or 2..6")
    p.add_argument("--preset", choices=PRESETS, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
