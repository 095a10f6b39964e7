"""Command-line interface.

Subcommands classify pairs of polynomials, materialize and verify witness
maps, and scan one-parameter families.  Output is deterministic JSON on
stdout; errors are machine-readable JSON on stderr.  Exit codes for the
classification commands encode the verdict: 0 equivalent, 1 not equivalent,
2 unknown, 3 and above for errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache

from . import jsonio
from .lipclass import classify_pair
from .parser import InputTooLargeError, ParseError, identifiers, parse_bi, parse_rational, parse_uni
from .qhdecide import (
    BetaMismatchError,
    BetaRangeError,
    DegreeMismatchError,
    NotQuasihomogeneousError,
    QHPoly,
    Verdict2D,
    VerdictKind,
    decide,
    infer_beta,
    validate_qh,
)
from .witness import AsymptoticOverflowError, verify

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

#: most samples `witness --samples` takes; each costs about one float
#: evaluation of the witness maps
MAX_SAMPLES = 1_000_000
#: most values `scan --values` takes; n values cost n(n-1)/2 decisions
MAX_SCAN_VALUES = 64

_VERDICT_EXIT = {
    VerdictKind.EQUIVALENT: EXIT_EQUIVALENT,
    VerdictKind.NOT_EQUIVALENT: EXIT_NOT_EQUIVALENT,
    VerdictKind.UNKNOWN: EXIT_UNKNOWN,
}

#: error code reported for each expected failure; anything else is "internal".
#: The first matching class wins, so a subclass comes before its base.
_ERROR_CODES = {
    InputTooLargeError: "input_too_large",
    ParseError: "parse_error",
    NotQuasihomogeneousError: "not_quasihomogeneous",
    BetaRangeError: "beta_out_of_range",
    BetaMismatchError: "beta_mismatch",
    DegreeMismatchError: "degree_mismatch",
}


class CliError(Exception):
    def __init__(self, message: str, code: str = "invalid_input"):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as CliError, for main to report as JSON with exit
    code 3: argparse's own exit code 2 would read as the Unknown verdict."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}", "usage_error")


def _checked(cast, ok, want: str):
    """An argparse type: cast(raw), refused unless ok holds for the value."""

    def parse(raw: str):
        try:
            value = cast(raw)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {want}, got {raw!r}")

    return parse


def _emit(obj: dict) -> None:
    try:
        print(json.dumps(obj, indent=2, allow_nan=False), flush=True)  # NaN and Infinity are not JSON
    except BrokenPipeError:
        # the reader has left: the rest, and the flush at exit, go to the null device
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _fail(message: str, code: str) -> int:
    print(json.dumps({"error": {"code": code, "message": message}}), file=sys.stderr)
    return EXIT_ERROR


def _parse_lets(items: list[str] | None, *texts: str) -> dict[str, Fraction]:
    """The --let bindings, each of a parameter that one of texts names: a
    mistyped name would bind nothing and silently change what is decided."""
    named = set().union(*map(identifiers, texts))
    bindings: dict[str, Fraction] = {}
    for item in items or []:
        if "=" not in item:
            raise CliError(f"--let expects name=rational, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise CliError(f"invalid parameter name {name!r}")
        if name in bindings:
            raise CliError(f"parameter {name!r} is bound twice by --let")
        if name not in named:
            raise CliError(f"parameter {name!r} is bound by --let but no input names it")
        bindings[name] = parse_rational(raw)
    return bindings


def _qh_from_args(text: str, args, bindings, beta: Fraction | None = None) -> QHPoly:
    F = parse_bi(text, bindings)
    if args.beta is not None:
        beta = beta or parse_rational(args.beta)
        return validate_qh(F, beta.numerator, beta.denominator)
    inf = infer_beta(F)
    if inf.ambiguous:
        raise CliError(
            "beta is ambiguous for a monomial; pass --beta explicitly", "beta_ambiguous"
        )
    if not inf.matches:
        raise CliError("no admissible beta > 1 fits this polynomial", "beta_unavailable")
    return inf.matches[0]


def _add_beta_flags(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", help="weights r/s with r > s > 0, e.g. 2/1")
    group.add_argument(
        "--infer-beta", action="store_true", help="infer the unique admissible beta"
    )


def _add_lets(sp) -> None:
    sp.add_argument(
        "--let",
        action="append",
        metavar="NAME=RATIONAL",
        help="bind a parameter before parsing (repeatable)",
    )


def cmd_classify1(args) -> int:
    bindings = _parse_lets(args.let, args.f, args.g)
    f = parse_uni(args.f, bindings)
    g = parse_uni(args.g, bindings)
    verdict = classify_pair(f, g)
    out = {
        "f": str(f),
        "g": str(g),
    }
    out.update(jsonio.verdict1_json(verdict))
    _emit(out)
    return EXIT_EQUIVALENT if verdict.equivalent else EXIT_NOT_EQUIVALENT


def _classify2(args) -> tuple[QHPoly, QHPoly, Verdict2D, dict]:
    """Decide the pair F, G; returns it with the verdict and its JSON view."""
    bindings = _parse_lets(args.let, args.F, args.G)
    F = _qh_from_args(args.F, args, bindings)
    G = _qh_from_args(args.G, args, bindings)
    verdict = decide(F, G)
    out = {
        "F": str(F.poly),
        "G": str(G.poly),
        "beta": f"{F.r}/{F.s}",
        "degree": F.d,
    }
    out.update(jsonio.verdict2_json(verdict))
    return F, G, verdict, out


def cmd_classify2(args) -> int:
    _, _, verdict, out = _classify2(args)
    _emit(out)
    return _VERDICT_EXIT[verdict.kind]


def cmd_witness(args) -> int:
    if args.samples > MAX_SAMPLES:
        raise CliError(f"--samples above {MAX_SAMPLES}", "input_too_large")
    F, G, verdict, out = _classify2(args)
    if verdict.kind == VerdictKind.EQUIVALENT:
        try:
            rep = verify(F, G, verdict.certificate.zygothety, args.samples, args.delta, args.tol)
        except AsymptoticOverflowError as exc:  # at an |t| that no flag moves
            raise CliError(str(exc), "input_too_large")
        except OverflowError as exc:
            raise CliError(f"--delta {args.delta!r} overflows the float witness check: {exc}", "input_too_large")
        out["report"] = jsonio.report_json(rep)
        _emit(out)
        if rep.conjugacy_pass:
            return EXIT_EQUIVALENT
        return _fail(f"conjugacy residual {rep.max_rel_residual!r} above --tol {rep.tol!r}", "conjugacy_check_failed")
    _emit(out)
    return _VERDICT_EXIT[verdict.kind]


def cmd_scan(args) -> int:
    raw_values = args.values.split(",")
    if len(raw_values) > MAX_SCAN_VALUES:
        raise CliError(f"--values holds more than {MAX_SCAN_VALUES} values", "input_too_large")
    base_bindings = _parse_lets(args.let, args.family)
    if args.param in base_bindings:
        raise CliError(f"parameter {args.param!r} is the --param and cannot be bound by --let")
    if args.param not in identifiers(args.family):
        raise CliError(f"parameter {args.param!r} is the --param but the family does not name it")
    values = [parse_rational(v) for v in raw_values]
    # one parse per value, each evaluating the family's one compiled program; --beta is
    # parsed once, in the first member, after its family, and handed to the others
    polys = [_qh_from_args(args.family, args, {**base_bindings, args.param: values[0]})]
    beta = args.beta and Fraction(polys[0].r, polys[0].s)
    polys += [_qh_from_args(args.family, args, {**base_bindings, args.param: v}, beta) for v in values[1:]]
    n = len(polys)
    verdicts: dict[tuple[int, int], VerdictKind] = {}
    for i in range(n):
        for j in range(i + 1, n):
            verdicts[(i, j)] = decide(polys[i], polys[j]).kind

    # each value takes the label of the first earlier value it is Equivalent to;
    # the all-pairs decisions then double as a transitivity check of the engine
    label = list(range(n))
    for j in range(n):
        label[j] = next((label[i] for i in range(j) if verdicts[i, j] == VerdictKind.EQUIVALENT), j)
    for (i, j), kind in verdicts.items():
        if (kind == VerdictKind.EQUIVALENT) != (label[i] == label[j]):
            raise ArithmeticError("equivalence relation from decide() is not transitive; internal bug")
    partition = [[i for i in range(n) if label[i] == c] for c in range(n) if label[c] == c]
    unknown_pairs = sorted(k for k, v in verdicts.items() if v == VerdictKind.UNKNOWN)
    _emit(
        {
            "family": args.family,
            "param": args.param,
            "values": [str(v) for v in values],
            "partition": partition,
            "unknown_pairs": [list(p) for p in unknown_pairs],
        }
    )
    return 0


def cmd_infer_beta(args) -> int:
    F = parse_bi(args.F, _parse_lets(args.let, args.F))
    inf = infer_beta(F)
    _emit(
        {
            "F": str(F),
            "matches": [
                {"beta": f"{q.r}/{q.s}", "degree": q.d} for q in inf.matches
            ],
            "ambiguous": inf.ambiguous,
        }
    )
    return 0


@cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="qhlip",
        description=(
            "Exact Lipschitz classification of univariate polynomial functions "
            "and quasihomogeneous polynomials in two variables"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify1", help="Lipschitz equivalence of f(t), g(t)")
    sp.add_argument("f")
    sp.add_argument("g")
    _add_lets(sp)
    sp.set_defaults(func=cmd_classify1)

    sp = sub.add_parser("classify2", help="equivalence of F(X,Y), G(X,Y)")
    sp.add_argument("F")
    sp.add_argument("G")
    _add_beta_flags(sp)
    _add_lets(sp)
    sp.set_defaults(func=cmd_classify2)

    sp = sub.add_parser("witness", help="classify2 plus numeric witness verification")
    sp.add_argument("F")
    sp.add_argument("G")
    _add_beta_flags(sp)
    _add_lets(sp)
    sp.add_argument("--tol", type=_checked(float, lambda x: 0 <= x < math.inf, "a finite number >= 0"), default=1e-8)
    sp.add_argument("--delta", type=_checked(float, lambda x: 0 < x < math.inf, "a finite number > 0"), default=1.0)
    at_least = "sample at least this many points of the conjugacy grid"
    sp.add_argument("--samples", type=_checked(int, lambda n: n >= 1, "an integer >= 1"), default=10000, help=at_least)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("scan", help="pairwise classification over a parameter family")
    sp.add_argument("family")
    sp.add_argument("--param", required=True)
    sp.add_argument("--values", required=True, help="comma-separated rationals")
    _add_beta_flags(sp)
    _add_lets(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("infer-beta", help="admissible beta values for F(X,Y)")
    sp.add_argument("F")
    _add_lets(sp)
    sp.set_defaults(func=cmd_infer_beta)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail(str(exc), exc.code)
    except Exception as exc:  # a crash must never read as a verdict
        for kind, code in _ERROR_CODES.items():
            if isinstance(exc, kind):
                return _fail(str(exc), code)
        return _fail(f"{type(exc).__name__}: {exc}", "internal")


if __name__ == "__main__":
    sys.exit(main())
