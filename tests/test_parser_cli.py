import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhlip import cli, parser, qhdecide
from qhlip.cli import main
from qhlip.lipclass import critical_data
from qhlip.parser import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_TERMS,
    InputTooLargeError,
    ParseError,
    identifiers,
    parse_bi,
    parse_rational,
    parse_uni,
)
from qhlip.polyalg import BiPoly, UniPoly
from qhlip.qhdecide import Verdict2D, VerdictKind

from helpers import rand_unipoly, ref_parse_bi, ref_parse_uni, ref_tokenize, strict_json


class TestParse:
    def test_hp_family_with_binding(self):
        out = parse_bi("X^6 - 3*l*X^4*Y + Y^3", {"l": F(1)})
        assert out == BiPoly({(6, 0): 1, (4, 1): -3, (0, 3): 1})

    def test_univariate(self):
        assert parse_uni("t^3 - 3*t + 1") == UniPoly([1, -3, 0, 1])

    def test_rational_coefficient(self):
        assert parse_bi("1/2*X^2") == BiPoly({(2, 0): F(1, 2)})

    def test_whitespace_insensitive(self):
        assert parse_uni(" t ^ 2-1 ") == UniPoly([-1, 0, 1])

    def test_parentheses_and_unary_minus(self):
        assert parse_uni("-(t - 1)*(t + 1)") == UniPoly([1, 0, -1])
        assert parse_uni("-t^2") == UniPoly([0, 0, -1])
        assert parse_uni("(-t)^2") == UniPoly([0, 0, 1])

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_uni("t^3 + + 1")
        assert err.value.position == 6

    def test_unbound_identifier(self):
        with pytest.raises(ParseError, match="unbound identifier"):
            parse_bi("a*X")

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_uni("t^-2")

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="p/q"):
            parse_uni("0.5*t")

    def test_wrong_variable_for_kind(self):
        with pytest.raises(ParseError, match="unbound identifier"):
            parse_uni("X^2")

    def test_bad_character_is_reported_where_it_is(self):
        for text, position, message in (
            ("t $", 2, "unexpected character '\\$'"),
            ("t +  .5", 5, "p/q"),
            ("t + 0.5", 4, "p/q"),
            ("t.", 1, "p/q"),
        ):
            with pytest.raises(ParseError, match=message) as err:
                parse_uni(text)
            assert err.value.position == position

    def test_binding_a_variable_is_an_error(self):
        for parse, text, name in ((parse_bi, "X + Y", "X"), (parse_bi, "X + Y", "Y"), (parse_uni, "t", "t")):
            with pytest.raises(ParseError, match="cannot bind the variable"):
                parse(text, {name: F(1)})
        # a name that is not a variable of the kind is a parameter
        assert parse_uni("X*t + Y", {"X": F(2), "Y": F(3)}) == UniPoly([3, 2])

    def test_parse_rational(self):
        assert parse_rational("5/2") == F(5, 2)
        assert parse_rational("-3") == F(-3)
        with pytest.raises(ParseError):
            parse_rational("0.5")

    def test_round_trip_uni(self):
        rng = random.Random(600)
        for _ in range(25):
            p = rand_unipoly(rng, 7)
            assert parse_uni(str(p)) == p

    def test_round_trip_bi(self):
        rng = random.Random(601)
        for _ in range(25):
            terms = {
                (rng.randint(0, 5), rng.randint(0, 5)): F(
                    rng.randint(-9, 9), rng.randint(1, 4)
                )
                for _ in range(4)
            }
            p = BiPoly(terms)
            assert parse_bi(str(p)) == p


def nest(inner: str, depth: int) -> str:
    return "(" * depth + inner + ")" * depth


#: pieces of text at and just past each limit; (1 + X + Y)^k has
#: (k + 1)(k + 2)/2 terms, so 12 is within MAX_TERMS and 13 is not, and
#: with l = 0 the parameter's copy drops to k + 1 terms
LIMIT_PIECES = (
    f"X^{MAX_DEGREE}", f"X^{MAX_DEGREE + 1}", "Y^50*X^50", "Y^50*X^51", "l*X^60*X^60",
    "(1 + X + Y)^12", "(1 + X + Y)^13", "(1 + l*X + Y)^13",
    f"2^{MAX_COEFF_BITS - 1}", f"2^{MAX_COEFF_BITS}", f"l^{MAX_COEFF_BITS}",
    str(2**MAX_COEFF_BITS - 1), str(2**MAX_COEFF_BITS), f"1/{2**MAX_COEFF_BITS}", "9" * 4300,
    nest("X", MAX_DEPTH), nest("l", MAX_DEPTH + 1),
    "-" * MAX_DEPTH + "m", "-(" * (MAX_DEPTH // 2) + "X" + ")" * (MAX_DEPTH // 2 + 1),
)
#: pieces that break the syntax or name nothing bound
SYNTAX_PIECES = (")", "1.5", "$", "X^-1", "X^Y", "(X", "X X", "/2", "2/X", "1/0", "u", "")
ATOMS = ("X", "Y", "l", "m", "0", "1", "3", "2/3", "-7/5")


def _combine(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        inner.map(lambda t: f"({t})"),
        inner.map(lambda t: f"-{t}"),
        st.tuples(inner, st.integers(0, 7)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


parser_parts = st.recursive(
    st.sampled_from(ATOMS) | st.sampled_from(LIMIT_PIECES) | st.sampled_from(SYNTAX_PIECES), _combine, max_leaves=6
)
#: a few parts in a row, so refusals of several kinds meet in one text
parser_texts = st.tuples(parser_parts, st.lists(st.tuples(st.sampled_from("+-*"), parser_parts), max_size=3)).map(
    lambda t: t[0] + "".join(f" {op} {part}" for op, part in t[1])
)
parser_bindings = st.tuples(
    st.fixed_dictionaries(
        {"l": st.sampled_from((F(0), F(1), F(-2), F(3, 4), F(2**4000)))},
        optional={"m": st.sampled_from((F(0), F(-1), F(5, 2)))},
    ),
    st.sampled_from((False,) * 9 + (True,)),
).map(lambda t: {**t[0], "X": F(1)} if t[1] else t[0])  # binding a variable, now and then


def parse_outcome(parse, text, bindings):
    """The polynomial, or the refusal as (class, message, position)."""
    try:
        return parse(text, bindings)
    except ParseError as exc:
        return type(exc), exc.message, exc.position


class TestCompiledParser:
    """parse_bi compiles each text once and evaluates the program per
    binding; the plain recursive descent in helpers is its reference."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(parser_texts, st.lists(parser_bindings, min_size=2, max_size=3))
    def test_matches_the_reference_parser(self, text, bindings_list):
        for bindings in bindings_list:
            want = parse_outcome(ref_parse_bi, text, bindings)
            assert parse_outcome(parse_bi, text, bindings) == want, (text, bindings)
            # the univariate program reads Y as t, and X as a parameter
            uni = text.replace("Y", "t")
            assert parse_outcome(parse_uni, uni, bindings) == parse_outcome(ref_parse_uni, uni, bindings), (uni, bindings)
        want = parse_outcome(lambda t, _: {v for k, v, _ in ref_tokenize(t) if k == "ident"}, text, None)
        assert parse_outcome(lambda t, _: identifiers(t), text, None) == want

    @pytest.mark.parametrize("text, l, message, position", [
        # the unbound name comes first, though the power past the limit reads no parameter
        ("l + X^200", None, "unbound identifier 'l'", 0),
        ("l + X^200", F(1), f"power of degree above {MAX_DEGREE}", 6),
        # a parameter of value 0 drops terms and degree
        ("(1 + l*X + Y)^13", F(0), None, None),
        ("(1 + l*X + Y)^13", F(1), f"polynomial of more than {MAX_TERMS} terms", 14),
        ("l*X^60*X^60", F(0), None, None),
        ("l*X^60*X^60", F(1), f"product of degree above {MAX_DEGREE}", 6),
        # a syntax error after a limit error, and one before it
        ("l*X^101 + )", F(1), f"power of degree above {MAX_DEGREE}", 4),
        ("l + ) + X^101", F(1), "unexpected token ')'", 4),
        # the nesting is refused before the descent reaches the unbound name
        (nest("l", MAX_DEPTH + 1), None, f"nesting deeper than {MAX_DEPTH} levels", MAX_DEPTH),
        ("l + " + nest("1", MAX_DEPTH + 1), F(1), f"nesting deeper than {MAX_DEPTH} levels", 4 + MAX_DEPTH),
    ])
    def test_refusals_keep_their_order(self, text, l, message, position):
        bindings = {} if l is None else {"l": l}
        for _ in range(2):  # the second parse evaluates the cached program
            got = parse_outcome(parse_bi, text, bindings)
            assert got == parse_outcome(ref_parse_bi, text, bindings)
            assert (message, position) == ((None, None) if isinstance(got, BiPoly) else got[1:])


def run_cli(*argv):
    return main(list(argv))


def run_cli_capture(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HP = "X^6 - 3*l*X^4*Y + Y^3"
BETA_ABOVE_1 = "beta must be a rational greater than 1"
WITNESS = ["witness", "X^6+3*X^4*Y+Y^3", "X^6+6*X^4*Y+Y^3"]


def refuse_work(monkeypatch):
    """Make the CLI fail at its first decision or witness check."""

    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "decide", refuse)
    monkeypatch.setattr(cli, "verify", refuse)


class TestCli:
    def test_clustered_critical_points_get_a_verdict(self, capsys):
        # the critical points 1 +- 2^-1000.5 once took isolate_real_roots past
        # Python's recursion limit: exit 3 with an internal RecursionError
        f = "2^2001*(t-1)^3 - 3*t"
        code, out, _ = run_cli_capture(capsys, "classify1", f, f + " + 1")
        assert code == 1
        assert json.loads(out)["reason"] == "SymbolNotSimilar"

    def test_classify2_not_equivalent_exit_code(self, capsys):
        code, out, _ = run_cli_capture(
            capsys,
            "classify2",
            HP,
            "X^6 - 3*m*X^4*Y + Y^3",
            "--beta",
            "2/1",
            "--let",
            "l=1",
            "--let",
            "m=4",
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "NotEquivalent"
        conditions = {c["condition"] for c in data["reason"]["necessity_conditions"]}
        assert "a" in conditions

    def test_classify2_equivalent_exit_code(self, capsys):
        code, out, _ = run_cli_capture(
            capsys,
            "classify2",
            HP,
            "X^6 - 3*m*X^4*Y + Y^3",
            "--beta",
            "2/1",
            "--let",
            "l=-1",
            "--let",
            "m=-2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["certificate"]["theorem"] == "Cor_NoCritPoints"

    def test_classify2_coefficient_beyond_float_range(self, capsys):
        code, out, _ = run_cli_capture(capsys, "classify2", "(10^400)*X^3", "X^3", "--beta", "2/1")
        assert code == 0
        assert json.loads(out)["verdict"] == "Equivalent"

    def test_classify1(self, capsys):
        code, out, _ = run_cli_capture(
            capsys, "classify1", "t^3 + 3*t + 1", "t^3 + 6*t + 1"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Equivalent"

    def test_witness_report(self, capsys):
        code, out, _ = run_cli_capture(
            capsys,
            "witness",
            HP,
            "X^6 - 3*m*X^4*Y + Y^3",
            "--beta",
            "2/1",
            "--let",
            "l=-1",
            "--let",
            "m=-2",
            "--tol",
            "1e-8",
            "--samples",
            "4000",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["conjugacy_pass"]
        assert report["lipschitz_ratio_min"] > 0
        assert "asymptotic" in report

    def test_failed_witness_check_reports_an_error(self, capsys):
        code, out, err = run_cli_capture(
            capsys, "witness", HP, "X^6 - 3*m*X^4*Y + Y^3", "--beta", "2/1",
            "--let", "l=-1", "--let", "m=-2", "--tol", "0", "--samples", "400",
        )
        assert code == 3
        assert not json.loads(out)["report"]["conjugacy_pass"]
        error = json.loads(err)["error"]
        assert error["code"] == "conjugacy_check_failed"
        assert "--tol 0.0" in error["message"]

    @pytest.mark.parametrize(
        "F, G, code",
        [("X^6 - 3*X^4*Y + Y^3", "X^6 + 3*X^4*Y + Y^3", 1), ("X^4", "X^4 + Y^2", 2)],
        ids=["not_equivalent", "unknown"],
    )
    def test_witness_without_a_certificate_prints_classify2(self, capsys, F, G, code):
        # no certificate, so no float check: the verdict's bytes and exit code, no report
        witness = run_cli_capture(capsys, "witness", F, G, "--beta", "2/1")
        assert witness == run_cli_capture(capsys, "classify2", F, G, "--beta", "2/1")
        assert witness[0] == code and witness[2] == "" and "report" not in json.loads(witness[1])

    def test_scan_single_class(self, capsys):
        code, out, _ = run_cli_capture(
            capsys,
            "scan",
            HP,
            "--param",
            "l",
            "--values=-1,-2,-3",
            "--beta",
            "2/1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["partition"] == [[0, 1, 2]]
        assert data["unknown_pairs"] == []

    def test_scan_three_singletons(self, capsys):
        code, out, _ = run_cli_capture(
            capsys,
            "scan",
            HP,
            "--param",
            "l",
            "--values",
            "1/4,1,4",
            "--beta",
            "2/1",
        )
        assert code == 0
        assert json.loads(out)["partition"] == [[0], [1], [2]]

    def test_scan_partition_order_independent(self, capsys):
        def classes_by_value(values):
            code, out, _ = run_cli_capture(
                capsys, "scan", HP, "--param", "l", f"--values={values}", "--beta", "2/1"
            )
            assert code == 0
            data = json.loads(out)
            return {
                frozenset(data["values"][i] for i in cls) for cls in data["partition"]
            }

        assert classes_by_value("-1,-2,1,4") == classes_by_value("4,-2,1,-1")

    def test_largest_scan_fits_the_critical_data_cache(self, capsys):
        # MAX_SCAN_VALUES values give twice as many distinct heights, and
        # the all-pairs loop computes each one's critical data once; the
        # family compiles once, and each member's heights are built once
        n = cli.MAX_SCAN_VALUES
        values = [f"{k}/7" for k in range(1, n + 1)]
        family = "X^6+l*X^3*Y^2+Y^4"
        for cache in (critical_data, parser._compile, qhdecide._heights_cached):
            cache.cache_clear()
        code, out, _ = run_cli_capture(
            capsys, "scan", family, "--param", "l", f"--values={','.join(values)}", "--beta", "3/2"
        )
        assert code == 0
        assert critical_data.cache_info().misses == 2 * n
        assert parser._compile.cache_info().misses == 1
        assert qhdecide._heights_cached.cache_info().misses == n
        # every member is alone in its class, and every pair is Unknown
        want = {
            "family": family,
            "param": "l",
            "values": [str(F(v)) for v in values],
            "partition": [[i] for i in range(n)],
            "unknown_pairs": [[i, j] for i in range(n) for j in range(i + 1, n)],
        }
        assert out == json.dumps(want, indent=2) + "\n"

    def test_infer_beta(self, capsys):
        code, out, _ = run_cli_capture(capsys, "infer-beta", "X^6 - 3*X^4*Y + Y^3")
        assert code == 0
        data = json.loads(out)
        assert data["matches"] == [{"beta": "2/1", "degree": 6}]

    def test_infer_beta_without_a_match(self, capsys):
        # X^3*Y and X*Y have one weighted degree only if 3s + r = s + r, so s = 0
        code, out, err = run_cli_capture(capsys, "infer-beta", "X^3*Y + X*Y")
        assert (code, err) == (0, "")
        assert out == json.dumps({"F": "X^3*Y + X*Y", "matches": [], "ambiguous": False}, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify2", HP, "X^6 - 3*m*X^4*Y + Y^3", "--let", "l=-1", "--let", "m=-2"],
            ["witness", HP, "X^6 - 3*m*X^4*Y + Y^3", "--let", "l=-1", "--let", "m=-2", "--samples", "400"],
            ["scan", HP, "--param", "l", "--values=-1,-2,1,4"],
        ],
        ids=["classify2", "witness", "scan"],
    )
    def test_infer_beta_flag_matches_explicit_beta(self, capsys, argv):
        inferred = run_cli_capture(capsys, *argv, "--infer-beta")
        assert inferred == run_cli_capture(capsys, *argv, "--beta", "2/1")
        assert inferred[0] == 0 and inferred[2] == ""

    @pytest.mark.parametrize("command", ["classify2", "witness", "scan"])
    @pytest.mark.parametrize(
        "F, error", [("X^4", "beta_ambiguous"), ("X^2 + Y^2", "beta_unavailable")], ids=["monomial", "no_beta"]
    )
    def test_infer_beta_flag_failures(self, capsys, command, F, error):
        # scan refuses a family that does not name its --param before parsing a member
        argv = [command, f"l*({F})", "--param", "l", "--values", "1,2"] if command == "scan" else [command, F, F]
        code, out, err = run_cli_capture(capsys, *argv, "--infer-beta")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == error

    def test_parse_error_json_on_stderr(self, capsys):
        code, out, err = run_cli_capture(capsys, "classify1", "t +", "t")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "parse_error"

    def test_beta_validation_error(self, capsys):
        code, _, err = run_cli_capture(
            capsys, "classify2", "X^2 + Y", "X^2 + Y", "--beta", "1/2"
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == "beta_out_of_range"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["classify2", "X^2 + Y", "X^2 + Y", "--beta", "1"], "beta_out_of_range", BETA_ABOVE_1),
            (["classify2", "X^2 + Y", "X^2 + Y", "--beta", "-2"], "beta_out_of_range", BETA_ABOVE_1),
            (["classify2", "X^2 + Y", "X^2 + Y", "--beta", "0"], "beta_out_of_range", BETA_ABOVE_1),
            (["classify2", "X^2 + Y", "X^2 + Y", "--beta", "1/2"], "beta_out_of_range", BETA_ABOVE_1),
            # beta is checked before the polynomial
            (["classify2", "0", "X^6+Y^3", "--beta", "1"], "beta_out_of_range", BETA_ABOVE_1),
            (["classify2", "0", "X^6+Y^3", "--beta", "2"], "not_quasihomogeneous", "the zero polynomial is excluded"),
            (["infer-beta", "0"], "not_quasihomogeneous", "the zero polynomial is excluded"),
            (["classify2", "X*Y", "X*Y", "--beta", "3/2"], "not_quasihomogeneous",
             "Y-exponent 1 is not a multiple of s=2"),
            (["classify2", "5", "5", "--beta", "2/1"], "not_quasihomogeneous", "degree d must be a positive integer"),
            (["classify1", "t", "t", "--let", "l"], "invalid_input", "--let expects name=rational, got 'l'"),
            (["classify1", "t", "t", "--let", "2x=1"], "invalid_input", "invalid parameter name '2x'"),
            (["classify1", "l*t", "t", "--let", "l=1/0"], "parse_error", "zero denominator (at position 0)"),
            (["infer-beta", "X/2"], "parse_error",
             "'/' is only allowed between integer literals (rational p/q) (at position 1)"),
        ],
        ids=["beta_1", "beta_-2", "beta_0", "beta_1/2", "zero_beta_1", "zero_beta_2", "infer_zero", "y_exponent",
             "degree_0", "let_no_value", "let_bad_name", "let_zero_denominator", "slash_after_variable"],
    )
    def test_error_protocol(self, capsys, argv, code, message):
        exit_code, out, err = run_cli_capture(capsys, *argv)
        assert exit_code == 3
        assert out == ""
        assert json.loads(err) == {"error": {"code": code, "message": message}}

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["classify1", "t^3 - 3*a*t", "t^3 - 3*t", "--let", "a=1", "--let", "a=2"], "'a'"),
            (["scan", HP, "--param", "l", "--values=1,-1", "--let", "l=5", "--beta", "2/1"], "'l'"),
            (["classify1", "t^3 - 3*a*t", "t^3-3*t", "--let", "a=1", "--let", "b=7"], "'b'"),
            (["classify2", HP, HP, "--beta", "2/1", "--let", "l=1", "--let", "m=4"], "'m'"),
            (["infer-beta", "X^6 + Y^3", "--let", "l=1"], "'l'"),
            (["scan", HP, "--param", "m", "--values=1,2", "--let", "l=1", "--beta", "2/1"], "'m'"),
            (["scan", HP, "--param", "l", "--values=1,2", "--let", "m=1", "--beta", "2/1"], "'m'"),
        ],
        ids=[
            "bound_twice",
            "let_of_the_param",
            "let_unnamed_1d",
            "let_unnamed_2d",
            "let_unnamed_infer",
            "param_unnamed",
            "let_unnamed_scan",
        ],
    )
    def test_let_that_would_drop_a_binding_is_refused(self, capsys, monkeypatch, argv, name):
        refuse_work(monkeypatch)
        code, out, err = run_cli_capture(capsys, *argv)
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid_input"
        assert name in error["message"]

    @pytest.mark.parametrize("values", ["1,2", "1,x"])
    def test_scan_refuses_an_unnamed_param_before_parsing(self, capsys, monkeypatch, values):
        calls = []
        parse_member = cli._qh_from_args
        monkeypatch.setattr(cli, "_qh_from_args", lambda *a: calls.append(a) or parse_member(*a))
        argv = ["scan", HP, "--param", "m", f"--values={values}", "--let", "l=1", "--beta", "2/1"]
        code, out, err = run_cli_capture(capsys, *argv)
        assert (code, out, calls) == (3, "", [])
        message = "parameter 'm' is the --param but the family does not name it"
        assert json.loads(err) == {"error": {"code": "invalid_input", "message": message}}

    BAD_RATIONAL = "expected an exact rational like -3 or 5/2 (decimals are not supported) (at position 0)"

    @pytest.mark.parametrize(
        "family, values, beta, code, message",
        [
            (HP + ")", "1,2", "2/x", "parse_error", "unexpected trailing input ')' (at position 21)"),
            (HP + ")", "1,2", "2/1", "parse_error", "unexpected trailing input ')' (at position 21)"),
            (HP, "1,2", "2/x", "parse_error", BAD_RATIONAL),
            # the second member breaks a limit or the support, after --beta is read
            ("X^6 - 3*l^4096*X^4*Y + Y^3", "1,2", "2/x", "parse_error", BAD_RATIONAL),
            ("X^6 - 3*l^4096*X^4*Y + Y^3", "1,2", "2/1", "input_too_large", "coefficient above 4096 bits (at position 10)"),
            ("l*X^6 + l*Y^3", "1,0", "2/x", "parse_error", BAD_RATIONAL),
            ("l*X^6 + l*Y^3", "1,0", "2/1", "not_quasihomogeneous", "the zero polynomial is excluded"),
            ("l*X^6 + l*Y^3", "1,0", "1/2", "beta_out_of_range", BETA_ABOVE_1),
        ],
        ids=["both", "family", "beta", "limit_and_beta", "limit", "zero_and_beta", "zero", "beta_range"],
    )
    def test_scan_reads_beta_once_and_keeps_the_error_order(self, capsys, monkeypatch, family, values, beta, code, message):
        # a member's refusal comes before --beta's only when it is the first member's
        read = []
        monkeypatch.setattr(cli, "parse_rational", lambda text: read.append(text) or parser.parse_rational(text))
        exit_code, out, err = run_cli_capture(capsys, "scan", family, "--param", "l", f"--values={values}", "--beta", beta)
        assert (exit_code, out) == (3, "")
        assert json.loads(err) == {"error": {"code": code, "message": message}}
        assert read.count(beta) <= 1

    def test_scan_parses_beta_once(self, capsys, monkeypatch):
        read = []
        monkeypatch.setattr(cli, "parse_rational", lambda text: read.append(text) or parser.parse_rational(text))
        code, _, _ = run_cli_capture(capsys, "scan", HP, "--param", "l", "--values=1,2,3,4,5,6,7,8", "--beta", "2/1")
        assert code == 0 and read == [*"12345678", "2/1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", HP, "--param", "X", "--values", "1,2,3", "--let", "l=-1", "--beta", "2/1"],
            ["classify2", HP, HP, "--beta", "2/1", "--let", "l=1", "--let", "X=1"],
            ["classify1", "t^3", "t", "--let", "t=3"],
        ],
        ids=["scan_param", "let_bivariate", "let_univariate"],
    )
    def test_binding_a_variable_is_a_parse_error(self, capsys, argv):
        code, out, err = run_cli_capture(capsys, *argv)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "parse_error"

    def test_decimal_binding_rejected(self, capsys):
        code, _, err = run_cli_capture(
            capsys, "classify2", HP, HP, "--beta", "2/1", "--let", "l=0.5"
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == "parse_error"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify1", "t^100000000", "t"],
            ["classify1", "1" * 5000 + "*t", "t"],
            ["classify1", "(t^60)*(t^60)", "t"],
            ["classify1", "2^100000000*t", "t"],
            ["classify1", "(10^1000)^5*t", "t"],
            ["classify2", HP, HP, "--beta", "2/1", "--let", "l=" + "7" * 5000],
            ["classify2", "(X+Y+1)^100", "X^100", "--beta", "2/1"],
            ["classify2", "(X+Y+1)^50*(X+Y+1)^50", "X^100", "--beta", "2/1"],
            ["classify1", "(" * 200 + "t" + ")" * 200, "t"],
            ["classify1", "--", "-" * 2000 + "t", "t"],
        ],
        ids=[
            "power_degree",
            "long_literal",
            "product_degree",
            "constant_power",
            "coefficient_power",
            "long_binding",
            "dense_power",
            "dense_product",
            "deep_parentheses",
            "deep_minus",
        ],
    )
    def test_huge_input_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli_capture(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "input_too_large"

    def test_inputs_at_the_limits_parse(self):
        assert parse_uni("t^100").degree == 100
        assert parse_uni("(t + 1)^50*(t - 1)^50").degree == 100
        assert parse_uni("2^4095") == UniPoly([2**4095])
        assert parse_uni("1^100000000 * t") == UniPoly([0, 1])
        with pytest.raises(InputTooLargeError):
            parse_uni("2^4096")
        with pytest.raises(InputTooLargeError):
            parse_bi("X^50*Y^51")
        assert len(parse_bi("(X^2 + Y)^50").terms) == 51
        with pytest.raises(InputTooLargeError):
            parse_bi("(X + Y + 1)^13")
        # each parenthesis and each prefix minus is one level of nesting
        assert parse_uni("(" * 100 + "t" + ")" * 100) == UniPoly([0, 1])
        assert parse_uni("-" * 100 + "t") == UniPoly([0, 1])
        assert parse_uni("-(" * 50 + "t" + ")" * 50) == UniPoly([0, 1])
        assert parse_uni("(t)+" * 500 + "t") == UniPoly([0, 501])
        for deep in ("(" * 101 + "t" + ")" * 101, "-" * 101 + "t", "-(" * 50 + "-t" + ")" * 50):
            with pytest.raises(InputTooLargeError):
                parse_uni(deep)

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify1", "-t^3", "t"],
            ["classify2", "X^4", "2*X^4", "--beta", "2/1", "--bogus"],
            ["witness", "X^4", "X^4", "--beta", "2/1", "--samples", "many"],
            [],
        ],
        ids=["leading_minus", "unknown_flag", "bad_flag_value", "no_command"],
    )
    def test_usage_error_is_not_a_verdict(self, capsys, argv):
        code, out, err = run_cli_capture(capsys, *argv)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "usage_error"

    @pytest.mark.parametrize(
        "option",
        [
            "--delta=0",
            "--delta=-1",
            "--delta=nan",
            "--delta=inf",
            "--samples=0",
            "--samples=-5",
            "--samples=1.5",
            "--tol=-1",
            "--tol=nan",
            "--tol=inf",
        ],
    )
    def test_bad_witness_option_is_a_usage_error(self, capsys, monkeypatch, option):
        refuse_work(monkeypatch)
        code, out, err = run_cli_capture(capsys, *WITNESS, option)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "usage_error"

    @pytest.mark.parametrize(
        "argv",
        [
            [*WITNESS, f"--samples={cli.MAX_SAMPLES + 1}"],
            ["scan", HP, "--param", "l", "--values=" + ",".join(["1"] * (cli.MAX_SCAN_VALUES + 1))],
        ],
        ids=["samples", "scan_values"],
    )
    def test_too_much_work_is_refused_before_it_starts(self, capsys, monkeypatch, argv):
        refuse_work(monkeypatch)
        code, out, err = run_cli_capture(capsys, *argv, "--beta", "2/1")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "input_too_large"

    @pytest.mark.parametrize(
        "argv",
        [
            [*WITNESS, f"--samples={cli.MAX_SAMPLES}"],
            ["scan", HP, "--param", "l", "--values=" + ",".join(["1"] * cli.MAX_SCAN_VALUES)],
        ],
        ids=["samples", "scan_values"],
    )
    def test_work_limits_are_inclusive(self, capsys, monkeypatch, argv):
        # at each limit the command gets as far as its first decision
        refuse_work(monkeypatch)
        code, out, err = run_cli_capture(capsys, *argv, "--beta", "2/1")
        assert code == 3
        assert json.loads(err)["error"] == {"code": "internal", "message": "AssertionError: work started"}

    def test_leading_minus_after_double_dash(self, capsys):
        code, out, _ = run_cli_capture(capsys, "classify1", "--", "-t^3", "t^3")
        assert code == 0
        assert json.loads(out)["f"] == "-t^3"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify2", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qhlip classify2")

    def test_internal_error_is_not_a_verdict(self, capsys, monkeypatch):
        def broken(F, G):
            raise AssertionError("injected")

        monkeypatch.setattr("qhlip.cli.decide", broken)
        code, out, err = run_cli_capture(capsys, "classify2", HP, HP, "--beta", "2/1", "--let", "l=1")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == {"code": "internal", "message": "AssertionError: injected"}

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run_cli_capture(
            capsys,
            "classify2",
            "2*X^4",
            "X^4 + X^2*Y",
            "--beta",
            "2/1",
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "Unknown"

    @pytest.mark.parametrize(
        "F, G, beta, kind",
        [
            ("X^8 + Y^4", "X^8 - X^4*Y^2 + Y^4", "2/1", "NecessityConditionsUnavailable"),
            (
                "X^2*Y^6 - 3*X^5*Y^4 - 3*X^8*Y^2",
                "X^2*Y^6 - 3*X^5*Y^4 - 2*X^8*Y^2",
                "3/2",
                "SufficiencyGap",
            ),
        ],
    )
    def test_unknown_reasons(self, capsys, F, G, beta, kind):
        code, out, _ = run_cli_capture(capsys, "classify2", F, G, "--beta", beta)
        assert code == 2
        assert json.loads(out)["reason"]["kind"] == kind

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify1", "--", "-t^3", "t"],
            ["classify2", HP, "X^6 - 3*m*X^4*Y + Y^3", "--beta", "2/1", "--let", "l=1", "--let", "m=4"],
        ],
        ids=["classify1", "classify2"],
    )
    def test_closed_stdout_keeps_the_verdict_exit_code(self, argv):
        cmd = [sys.executable, "-m", "qhlip.cli", *argv]
        reader, writer = os.pipe()
        os.close(reader)  # the reader has left before the first write
        try:
            closed = subprocess.run(cmd, stdout=writer, stderr=subprocess.PIPE)
        finally:
            os.close(writer)
        opened = subprocess.run(cmd, capture_output=True)
        assert closed.returncode == opened.returncode
        assert closed.stderr == b""

    def test_byte_deterministic_output(self):
        cmd = [
            sys.executable,
            "-m",
            "qhlip.cli",
            "witness",
            HP,
            "X^6 - 3*m*X^4*Y + Y^3",
            "--beta",
            "2/1",
            "--let",
            "l=-1",
            "--let",
            "m=-3",
            "--samples",
            "2000",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_calls_in_one_process_match_fresh_calls(self, capsys):
        # build_parser is built once per process: a --let, or a usage error
        # raised halfway through parsing, must not carry over to the next call,
        # and a warm compile cache must print what a cold one prints
        calls = [
            ["classify2", HP, "X^6 - 3*m*X^4*Y + Y^3", "--beta", "2/1", "--let", "l=-1", "--let", "m=-3"],
            ["classify2", HP, "X^6 - 3*m*X^4*Y + Y^3", "--beta", "2/1"],
            ["witness", "X^4", "X^4", "--beta", "2/1", "--samples", "many"],
            ["classify1", "t^3 - 3*t", "-t^3 + 3*t"],
            # the family's program is cached by the classify2 calls above
            ["scan", HP, "--param", "l", "--values=-1,-2,1,4,0", "--beta", "2/1"],
        ]
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "qhlip.cli", *argv], capture_output=True)
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out.encode(), captured.err.encode()) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            ), argv


def test_start_up_loads_no_dataclasses():
    # every CLI call is a fresh interpreter that pays for this import, and the
    # dataclass machinery, with the inspect, ast and dis it loads, costs a third of it
    src = Path(cli.__file__).resolve().parents[1]
    script = "import sys, qhlip, qhlip.cli; print(qhlip.__file__); print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))  # this checkout's qhlip, not one installed or on a PYTHONPATH
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    path, loaded = out.stdout.splitlines()
    assert Path(path).resolve().parents[1] == src
    assert loaded == "False"


def scan_outcome(capsys, monkeypatch, n, kinds):
    """Scan n values with decide patched to answer kinds[(i, j)] for i < j."""

    def patched(F, G):
        # the family l*X^6 + Y^3 at l = 1..n: value i has X^6 coefficient i + 1
        i, j = (int(Q.poly.terms[6, 0]) - 1 for Q in (F, G))
        return Verdict2D(kinds[i, j])

    monkeypatch.setattr(cli, "decide", patched)
    values = ",".join(str(v) for v in range(1, n + 1))
    return run_cli_capture(capsys, "scan", "l*X^6 + Y^3", "--param", "l", f"--values={values}", "--beta", "2/1")


@pytest.mark.parametrize(
    "n, choices",
    [(3, list(VerdictKind)), (4, [VerdictKind.EQUIVALENT, VerdictKind.NOT_EQUIVALENT])],
    ids=["3_values_3_kinds", "4_values_2_kinds"],
)
def test_scan_partition_against_brute_force(capsys, monkeypatch, n, choices):
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product(choices, repeat=len(pairs)):
        kinds = dict(zip(pairs, assignment))
        equivalent = {p for p, kind in kinds.items() if kind == VerdictKind.EQUIVALENT}
        equivalent |= {(j, i) for i, j in equivalent} | {(i, i) for i in range(n)}
        transitive = all((a, c) in equivalent for a, b in equivalent for b2, c in equivalent if b == b2)
        code, out, err = scan_outcome(capsys, monkeypatch, n, kinds)
        if transitive:
            classes = {tuple(j for j in range(n) if (i, j) in equivalent) for i in range(n)}
            assert code == 0, err
            data = json.loads(out)
            assert data["partition"] == [list(c) for c in sorted(classes)]
            assert data["unknown_pairs"] == [list(p) for p in pairs if kinds[p] == VerdictKind.UNKNOWN]
        else:
            assert code == 3, assignment
            assert out == ""
            error = json.loads(err)["error"]
            assert error["code"] == "internal"
            assert error["message"].startswith("ArithmeticError")


def readme_commands() -> list[list[str]]:
    """The qhlip commands of README's CLI block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qhlip ")]


def test_readme_examples_run(capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["classify1", "classify2", "witness", "scan", "infer-beta"]
    for argv in commands:
        code, out, err = run_cli_capture(capsys, *argv)
        assert code in (0, 1, 2), (argv, err)
        strict_json(out)
