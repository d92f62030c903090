"""Command-line surface: one subcommand per library operation plus `verify`.

Exit discipline: 0 success, 1 verification/property failure (including a
`check` whose word is not a solution), 2 usage error.  A library
self-check that fires (`InternalCheckError`) is a bug and propagates with
its traceback, which also exits 1.  JSON output is a single document
with sorted keys and integers only, so parsing it and re-serializing it
the same way is byte-identical.  Word literals are comma-separated
integers, negatives allowed; on a shell, prefix negative literals with
`--` so they are not read as options.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain, islice

from .bruteforce import DEFAULT_BUDGET, EnumerationQuery, enumerate_solutions
from .errors import BudgetExceededError, UsageError
from .monomial import (
    Decomposition,
    Exhausted,
    classify_monomials,
    monomial_report,
    quadratic_roots,
)
from .numtheory import MAX_MODULUS, binomial_valuation, euler_phi, factorize
from .ring import Modulus, is_pm_identity
from .verification import PRESETS, render_report, run_moduli, run_preset
from .words import canonical_form, oplus, parse_word, word_matrix

FORMATS = ("text", "json", "csv")
JSON_STYLE = {"sort_keys": True, "indent": 2}


def dump_json(payload) -> str:
    return json.dumps(payload, **JSON_STYLE) + "\n"


def _emit(args, lines, payload, header: list[str], rows) -> None:
    """Write the chosen format, building only it: `lines` (text, each ending
    in a newline) and `rows` (CSV) are iterables, `payload` returns the JSON
    document; generators stream a long output."""
    if args.format == "json":
        # one write per 4096 pieces: json.dump's write per piece is 1.6x slower
        pieces = json.JSONEncoder(**JSON_STYLE).iterencode(payload())
        while batch := "".join(islice(pieces, 4096)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.writelines(lines)


def _word_str(values) -> str:
    return ",".join(str(v) for v in values)


def _certificate_payload(certificate, full: bool) -> dict:
    payload = {"variant": certificate.variant,
               "summary": certificate.summary()}
    if not full:
        return payload
    if isinstance(certificate, Decomposition):
        payload["target"] = certificate.target.values
        payload["left"] = certificate.left.values
        payload["right"] = certificate.right.values
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
    rows = [[modulus.n, _word_str(w.values), sign is not None,
             "" if sign is None else sign]]
    _emit(args, [text],
          lambda: {"N": modulus.n, "word": w.values, "matrix": matrix.rows(),
                   "solution": sign is not None, "sign": sign},
          ["N", "word", "solution", "sign"], rows)
    return 0 if sign is not None else 1


_REPORT_HEADER = ["k", "size", "sign", "irreducible", "certificate"]


def _report_row(report) -> list:
    return [report.k, report.size, report.sign,
            "yes" if report.irreducible else "no",
            report.certificate.summary()]


def _report_payload(r, full: bool) -> dict:
    return {"k": r.k, "size": r.size, "sign": r.sign,
            "irreducible": r.irreducible,
            "certificate": _certificate_payload(r.certificate, full)}


def cmd_monomial(args) -> int:
    modulus = Modulus(args.modulus)
    if args.all:
        reports = classify_monomials(modulus)
        count = sum(r.irreducible for r in reports)
        lines = chain(
            [f"{'k':>4} {'size':>6} {'sign':>4} {'irr':>3}  certificate\n"],
            (f"{r.k:>4} {r.size:>6} {r.sign:>+4d} "
             f"{'yes' if r.irreducible else 'no':>3}  "
             f"{r.certificate.summary()}\n" for r in reports),
            [f"irreducible: {count} of {modulus.n}\n"])
        _emit(args, lines, lambda: {
            "N": modulus.n, "irreducible_count": count,
            "reports": [_report_payload(r, full=False) for r in reports]},
            _REPORT_HEADER, map(_report_row, reports))
        return 0
    k = args.k
    if not 0 <= k < modulus.n:
        raise UsageError(f"k must lie in [0, {modulus.n}), got {k}")
    r = monomial_report(modulus, k)
    if args.format == "json" and isinstance(r.certificate, Decomposition):
        letters = 2 * r.size + 2  # target, left and right summands
        if letters > DEFAULT_BUDGET:
            raise BudgetExceededError("the certificate JSON",
                                      f"{letters} letters", DEFAULT_BUDGET)
    text = (f"N={modulus.n} k={k}: minimal size {r.size}, sign {r.sign:+d}, "
            f"{'irreducible' if r.irreducible else 'not irreducible'}\n"
            f"certificate: {r.certificate.summary()}\n")
    _emit(args, [text],
          lambda: {"N": modulus.n, **_report_payload(r, full=True)},
          _REPORT_HEADER, [_report_row(r)])
    return 0


def cmd_sum(args) -> int:
    modulus = Modulus(args.modulus)
    left = parse_word(args.left, modulus)
    right = parse_word(args.right, modulus)
    total = oplus(left, right)
    text = (f"({_word_str(left.values)}) (+) ({_word_str(right.values)}) = "
            f"({_word_str(total.values)}) mod {modulus.n}\n")
    _emit(args, [text],
          lambda: {"N": modulus.n, "left": left.values,
                   "right": right.values, "sum": total.values},
          ["N", "left", "right", "sum"],
          [[modulus.n, _word_str(left.values), _word_str(right.values),
            _word_str(total.values)]])
    return 0


def cmd_canon(args) -> int:
    modulus = Modulus(args.modulus)
    w = parse_word(args.word, modulus)
    canon = canonical_form(w)
    text = f"({_word_str(canon.values)}) mod {modulus.n}\n"
    _emit(args, [text],
          lambda: {"N": modulus.n, "word": w.values,
                   "canonical": canon.values},
          ["N", "word", "canonical"],
          [[modulus.n, _word_str(w.values), _word_str(canon.values)]])
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
    if args.count_only and args.format == "csv":
        # a header with no rows would read as a census with no solutions
        raise UsageError("--count-only has no CSV form; use --format text "
                         "or --format json")
    modulus = Modulus(args.modulus)
    query = EnumerationQuery(modulus, args.size, dedup=args.dedup,
                             count_only=args.count_only,
                             budget=_budget_from_env())
    census = enumerate_solutions(query)
    title = (f"N={modulus.n} size={census.size}: {census.total} solutions"
             + (" (canonical representatives)" if census.dedup else "") + "\n")
    _emit(args, chain([title], (_word_str(v) + "\n" for v in census.values)),
          lambda: {"N": modulus.n, "n": census.size, "total": census.total,
                   "dedup": census.dedup, "representatives": census.values},
          [f"a{i + 1}" for i in range(census.size)], census.values)
    return 0


def cmd_roots(args) -> int:
    modulus = Modulus(args.modulus)
    if not 0 <= args.k < modulus.n:
        raise UsageError(f"k must lie in [0, {modulus.n}), got {args.k}")
    roots = quadratic_roots(modulus, args.k)
    text = (f"roots of x(x-{args.k}) mod {modulus.n}: "
            f"{_word_str(roots.roots)}\n")
    _emit(args, [text],
          lambda: {"N": modulus.n, "k": args.k, "roots": roots.roots},
          ["x"], [[x] for x in roots.roots])
    return 0


def cmd_phi(args) -> int:
    value = euler_phi(args.value)
    _emit(args, [f"phi({args.value}) = {value}\n"],
          lambda: {"value": args.value, "phi": value},
          ["value", "phi"], [[args.value, value]])
    return 0


def cmd_factor(args) -> int:
    factors = factorize(args.value)
    text_body = " * ".join(f"{p}^{e}" if e > 1 else f"{p}"
                           for p, e in factors) or "1"
    _emit(args, [f"{args.value} = {text_body}\n"],
          lambda: {"value": args.value, "factors": factors},
          ["prime", "exponent"], factors)
    return 0


def cmd_binom_val(args) -> int:
    value = binomial_valuation(args.top, args.j, args.base)
    _emit(args,
          [f"largest e with {args.base}^e | C({args.top},{args.j}): "
           f"{value}\n"],
          lambda: {"top": args.top, "j": args.j, "base": args.base,
                   "valuation": value},
          ["top", "j", "base", "valuation"],
          [[args.top, args.j, args.base, value]])
    return 0


def _modulus_range(raw: str) -> range:
    """The `--N` type: one modulus or an inclusive range lo..hi."""
    lo_text, dots, hi_text = raw.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse modulus range {raw!r}; expected e.g. 10 or "
            f"2..6") from None
    if lo < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad modulus range {raw!r}")
    if hi > MAX_MODULUS:
        raise argparse.ArgumentTypeError(
            f"bad modulus range {raw!r}: N must be <= {MAX_MODULUS}")
    return range(lo, hi + 1)


def cmd_verify(args) -> int:
    outcomes = (run_preset(args.preset) if args.preset is not None
                else run_moduli(args.moduli))
    all_passed, report = render_report(outcomes)
    sys.stdout.write(report)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwl",
        description="Words over Z/NZ whose matrix product is +/- identity: "
                    "checking, sums, canonical forms, minimal monomial "
                    "solutions with reducibility certificates, exhaustive "
                    "enumeration, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=FORMATS, default="text",
                           help="output format (default text)")
    modular = argparse.ArgumentParser(add_help=False, parents=[formatted])
    modular.add_argument("modulus", type=int, metavar="N")

    p = sub.add_parser("check", parents=[modular],
                       help="matrix of a word and its solution sign")
    p.add_argument("word", help="comma-separated integers")
    p.set_defaults(func=cmd_check)

    # argparse 3.10/3.11 drops (k | --all) from a generated usage line
    formats = "{" + ",".join(FORMATS) + "}"
    p = sub.add_parser("monomial", parents=[modular],
                       usage=f"%(prog)s [-h] [--format {formats}] "
                             f"N (k | --all)",
                       help="minimal monomial solution report(s)")
    choice = p.add_mutually_exclusive_group(required=True)
    choice.add_argument("k", type=int, nargs="?", default=None)
    choice.add_argument("--all", action="store_true",
                        help="table for every k in [0, N)")
    p.set_defaults(func=cmd_monomial)

    p = sub.add_parser("sum", parents=[modular],
                       help="boundary sum of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("canon", parents=[modular],
                       help="canonical arrangement of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("enumerate", parents=[modular],
                       help="all solutions of one size (budgeted)")
    p.add_argument("size", type=int, metavar="n")
    p.add_argument("--dedup", action="store_true",
                   help="collapse to canonical representatives")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("roots", parents=[modular],
                       help="roots of x(x-k) mod N")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("phi", parents=[formatted], help="Euler phi")
    p.add_argument("value", type=int)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("factor", parents=[formatted],
                       help="prime factorization")
    p.add_argument("value", type=int)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("binom-val", parents=[formatted],
                       help="largest e with base**e dividing C(top, j)")
    p.add_argument("top", type=int)
    p.add_argument("j", type=int)
    p.add_argument("base", type=int)
    p.set_defaults(func=cmd_binom_val)

    p = sub.add_parser("verify", help="run a deterministic check suite")
    choice = p.add_mutually_exclusive_group(required=True)
    choice.add_argument("--N", dest="moduli", type=_modulus_range,
                        metavar="RANGE",
                        help="modulus or range, e.g. 10 or 2..6")
    choice.add_argument("--preset", choices=PRESETS)
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


def console_main() -> None:
    raise SystemExit(main())
