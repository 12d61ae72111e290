"""Parsing, rendering, reports, subcommands, and the exit-code contract."""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polydiv import cli, closedform, detengine, polycore
from polydiv.cli import (
    LimitExceeded,
    Mismatch,
    ParseError,
    cmd_delta,
    cmd_divide,
    cmd_sequence,
    cmd_verify,
    parse_polynomial,
    render_polynomial,
)
from polydiv.polycore import DegreeTooSmall, DivisionResult, Polynomial, ZeroDivisor, divisor_views, long_divide

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(rationals, max_size=8).map(Polynomial)


def test_parse_quadratic():
    assert parse_polynomial("x^2 - x - 1") == Polynomial([-1, -1, 1])


def test_parse_zero():
    assert parse_polynomial("0").is_zero


def test_parse_sums_duplicate_exponents():
    assert parse_polynomial("2x + 3x - 1/2") == Polynomial([Fraction(-1, 2), 5])


def test_parse_fractional_coefficients():
    assert parse_polynomial("1/2x^3 - 2x") == Polynomial([0, -2, 0, Fraction(1, 2)])


def test_parse_list_syntax():
    assert parse_polynomial("[1/2, -2, 0, 0, 3]") == Polynomial(
        [Fraction(1, 2), -2, 0, 0, 3]
    )
    assert parse_polynomial("[]").is_zero
    assert parse_polynomial("[0, 0]").is_zero


def test_parse_unicode_minus():
    assert parse_polynomial("x^2 − 1") == Polynomial([-1, 0, 1])


def test_parse_leading_sign():
    assert parse_polynomial("-x + 2") == Polynomial([2, -1])
    assert parse_polynomial("+3") == Polynomial([3])


def test_parse_errors_carry_columns():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + ")
    assert exc.value.column == 5
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x^-2")
    assert exc.value.column == 1
    with pytest.raises(ParseError) as exc:
        parse_polynomial("1/0")
    assert "denominator" in str(exc.value)
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("x 1")
    with pytest.raises(ParseError):
        parse_polynomial("[1, 2")
    with pytest.raises(ParseError):
        parse_polynomial("[1, q]")


def test_text_after_coefficient_list():
    for text, column in (("[1]  junk", 6), ("[1, 2] + x", 8)):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == f"column {column}: unexpected text after the coefficient list"
    with pytest.raises(ParseError) as exc:
        parse_polynomial("[1, 2")
    assert str(exc.value) == "column 5: unterminated coefficient list"
    assert parse_polynomial(" [1, 2]  ") == Polynomial([1, 2])


def test_skip_ws_agrees_with_isspace():
    # _skip_ws matches a run of regex \s; the parser's columns rely on it
    # skipping exactly what str.isspace() calls whitespace.
    differ = [c for c in map(chr, range(0x110000)) if cli._skip_ws(c, 0) != c.isspace()]
    assert differ == []
    assert cli._skip_ws("x \t\u3000\u2028y", 1) == 5


def test_degree_cap_enforced():
    with pytest.raises(LimitExceeded):
        parse_polynomial("x^513")
    parse_polynomial("x^512")
    with pytest.raises(LimitExceeded):
        parse_polynomial("[" + ", ".join(["1"] * 514) + "]")
    assert parse_polynomial("[" + ", ".join(["1"] * 513) + "]").degree == 512


def test_coefficient_bit_cap():
    huge = "9" * 1500
    with pytest.raises(LimitExceeded):
        parse_polynomial(huge)
    with pytest.raises(LimitExceeded):
        parse_polynomial(f"[{huge}]")
    # 1234 nines pass the digit-run cap and need 4100 bits.
    nines = "9" * cli.MAX_DIGITS
    for text, column in ((nines, 1), (f"[1, {nines}]", 5), (f"1/{nines}", 1)):
        with pytest.raises(LimitExceeded) as exc:
            parse_polynomial(text)
        assert str(exc.value) == f"column {column}: coefficient needs 4100 bits, cap is 4096"
    # Each term fits; their sum, checked after summing, does not.
    widest = 2 ** cli.MAX_COEFF_BITS - 1
    with pytest.raises(LimitExceeded) as exc:
        parse_polynomial(f"{widest}x + {widest}x")
    assert str(exc.value) == "coefficient needs 4097 bits, cap is 4096"


@pytest.mark.parametrize(
    "dividend, column",
    [("{run}x + 1", 1), ("x^{run}", 3), ("1/{run}x", 3), ("[1, {run}]", 5)],
    ids=["coefficient", "exponent", "denominator", "list-entry"],
)
def test_long_digit_run_is_refused(capsys, dividend, column):
    # One digit past the cap, and 5000 digits, past CPython's default
    # int-to-str limit of 4300.
    for digits in (cli.MAX_DIGITS + 1, 5000):
        argv = ["divide", "--dividend", dividend.format(run="9" * digits), "--divisor", "x-1"]
        assert cli.main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert f"column {column}: digit run of {digits} digits, cap is {cli.MAX_DIGITS}" in out.err
        assert "Traceback" not in out.err


def test_digit_cap_covers_every_value_within_bit_cap():
    widest = 2 ** cli.MAX_COEFF_BITS - 1
    assert len(str(widest)) == cli.MAX_DIGITS
    assert parse_polynomial(str(widest)) == Polynomial([widest])


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no int-to-str digit limit",
)


@needs_digit_limit
@pytest.mark.parametrize(
    "dividend, digits, column",
    [("1" * 700, 700, 1), ("[1, " + "1" * 700 + "]", 700, 5), ("x^" + "1" * 701, 701, 3)],
    ids=["coefficient", "list-entry", "exponent"],
)
def test_digit_run_cap_follows_a_lowered_limit(capsys, dividend, digits, column):
    # Each run is past what int() converts under the limit, so the cap
    # drops to the limit; a run of exactly the limit is still served.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main(["divide", "--dividend", dividend, "--divisor", "x"])
        assert parse_polynomial("1" * 640).degree == 0
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"parse error: column {column}: digit run of {digits} digits, cap is 640\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int-to-str digit limit",
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_int_to_str_limit_is_domain_error(capsys, fmt):
    # A 4096-bit lead puts 1/lead^12, about 14800 digits, into the quotient.
    divisor = f"{2 ** 4095 + 1}x^2 + 1"
    argv = ["divide", "--dividend", "x^24 + 1", "--divisor", divisor, "--format", fmt]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert str(sys.get_int_max_str_digits()) in out.err
    assert "Traceback" not in out.err


def test_render_examples():
    assert render_polynomial(Polynomial()) == "0"
    assert render_polynomial(Polynomial([2, 1, 1])) == "x^2 + x + 2"
    assert render_polynomial(Polynomial([-1, -1])) == "-x - 1"
    assert render_polynomial(Polynomial([0, -2, 0, Fraction(1, 2)])) == "1/2x^3 - 2x"


@given(polys)
def test_parse_render_round_trip(p):
    assert parse_polynomial(render_polynomial(p)) == p


def test_cmd_divide_golden_report():
    report = cmd_divide("x^4", "x^2 - x - 1", "closed")
    assert report.method == "closed"
    assert report.quotient == ("2", "1", "1")
    assert report.remainder == ("2", "3")
    assert report.agreement is None
    assert report.dividend == "x^4"


def test_cmd_divide_self_division():
    report = cmd_divide("3x^2 - 1", "3x^2 - 1", "longdiv")
    assert report.quotient == ("1",)
    assert report.remainder == ()


def test_cmd_divide_small_dividend():
    report = cmd_divide("x", "x^3", "longdiv")
    assert report.quotient == ()
    assert report.remainder == ("0", "1")


def test_report_json_schema():
    report = cmd_verify("x^4", "x^2-x-1")
    payload = json.loads(report.to_json())
    assert list(payload) == ["dividend", "divisor", "method", "quotient", "remainder", "agreement"]
    assert payload["method"] == "longdiv"
    assert payload["quotient"] == ["2", "1", "1"]
    assert payload["agreement"] == {
        "longdiv": True,
        "closed": True,
        "det-formula": True,
        "det-ratio": True,
    }
    # Coefficient arrays feed straight back through the list syntax.
    rebuilt = parse_polynomial("[" + ", ".join(payload["quotient"]) + "]")
    assert rebuilt == Polynomial([2, 1, 1])


def test_report_text_format():
    report = cmd_divide("x^4", "x^2 - x - 1", "longdiv")
    assert report.to_text() == "quotient: x^2 + x + 2\nremainder: 3x + 2"


def test_cmd_verify_detects_corrupted_method(monkeypatch):
    def corrupted(f, g):
        good = cli.METHODS["longdiv"](f, g)
        return DivisionResult(
            quotient=good.quotient + Polynomial([1]), remainder=good.remainder
        )

    monkeypatch.setitem(cli.METHODS, "det-formula", corrupted)
    with pytest.raises(Mismatch) as exc:
        cmd_verify("x^4", "x^2-x-1")
    assert "det-formula" in str(exc.value)
    assert "x^0" in str(exc.value)


@pytest.mark.parametrize("method", list(cli.METHODS))
def test_methods_share_edge_cases(method):
    divide = cli.METHODS[method]
    f = Polynomial([2, 0, 6])
    with pytest.raises(ZeroDivisor):
        divide(f, Polynomial())
    assert divide(Polynomial(), Polynomial([1, 1])) == DivisionResult(Polynomial(), Polynomial())
    assert divide(f, Polynomial([0, 0, 0, 1])) == DivisionResult(Polynomial(), f)
    assert divide(f, Polynomial([4])) == DivisionResult(
        Polynomial([Fraction(1, 2), 0, Fraction(3, 2)]), Polynomial()
    )


def test_cmd_delta_variants():
    assert cmd_delta("x^2-x-1", 2, "pure-direct") == "2"
    assert cmd_delta("x^2-x-1", 1, "pure-closed") == "-1"
    assert cmd_delta("x^2-x-1", 1, "pure-flipped") == "1"
    assert cmd_delta("x^3", 2, "pure-direct") == "0"


def test_cmd_sequence_examples():
    assert cmd_sequence("x^2-x-1", "t", 5) == "1, 1, 2, 3, 5"
    assert cmd_sequence("x^3", "s", 4) == "1, 0, 0, 0"
    assert cmd_sequence("2x-2", "t", 3) == "1/2, 1/2, 1/2"


def test_main_divide_text(capsys):
    assert cli.main(["divide", "--dividend", "x^4", "--divisor", "x^2-x-1"]) == 0
    out = capsys.readouterr()
    assert out.out == "quotient: x^2 + x + 2\nremainder: 3x + 2\n"
    assert out.err == ""


def test_main_divide_json_each_method(capsys):
    for method in cli.METHODS:
        code = cli.main(
            [
                "divide",
                "--dividend", "x^4",
                "--divisor", "x^2-x-1",
                "--method", method,
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == method
        assert payload["quotient"] == ["2", "1", "1"]
        assert payload["remainder"] == ["2", "3"]


def test_main_parse_error_exit(capsys):
    assert cli.main(["divide", "--dividend", "x^", "--divisor", "x"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "parse error" in out.err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["divide"], "--dividend"),
        (["delta", "--divisor", "x", "-k", "abc"], "-k"),
        (["divide", "--dividend", "x", "--divisor", "x", "--method", "nope"], "--method"),
        (["delta", "--divisor", "x", "-k", "1", "--variant", "pure-bogus"], "--variant"),
        (["sequence", "--divisor", "x", "--kind", "u", "-n", "3"], "--kind"),
        (["frobnicate"], "command"),
        ([], "command"),
    ],
    ids=[
        "missing-option",
        "bad-int",
        "bad-choice",
        "bad-variant",
        "bad-kind",
        "unknown-subcommand",
        "empty",
    ],
)
def test_main_usage_error_is_parse_error(capsys, argv, name):
    # Only the prefix and the argument name: argparse words its messages
    # differently across Python versions.
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("parse error: ")
    assert name in out.err


@pytest.mark.parametrize(
    "argv, head, tail",
    [
        (["delta", "--divisor", "x", "-k", "9" * 5000], "-k", "9'"),
        (["delta", "--divisor", "x", "-k", "9" * 4000], "-k 999", "exceeds the degree cap 512"),
        (["sequence", "--divisor", "x", "--kind", "t", "-n", "9" * 5000], "-n", "9'"),
        (["delta", "--divisor", "x", "-k", "a" * 2999 + "z"], "-k", "z'"),
        (["divide", "--dividend", "[1, " + "q" * 4999 + "z]", "--divisor", "x"], "column 5", "z'"),
        (["divide", "--dividend", "x", "--divisor", "x", "--method", "m" * 5000], "--method", "det-ratio"),
        (["divide", "--dividend", "x", "--divisor", "x", "--format", "f" * 5000], "--format", "json"),
        (["s" * 5000], "command", "sequence"),
        (["divide", "--dividend", "x", "--divisor", "x", "--" + "o" * 4999 + "z"], "unrecognized", "z"),
    ],
    ids=[
        "int-5000",
        "count-cap-4000",
        "sequence-count",
        "letters",
        "list-entry",
        "method",
        "format",
        "unknown-subcommand",
        "unrecognized-option",
    ],
)
def test_long_parse_refusal_keeps_head_and_tail(capsys, argv, head, tail):
    # A refusal that would echo a whole over-long operand keeps its head,
    # which names the argument, and its tail, which names the limit or the
    # choices, and says how much it left out.
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.encode()) < 400
    assert out.err.startswith("parse error: ") and head in out.err[:60]
    assert "characters left out]" in out.err
    assert tail in out.err[-100:]


def test_cold_start_imports_no_dataclasses():
    # The set-up request every command-line call pays for, in a fresh
    # interpreter: dataclasses drags in inspect, ast, dis and tokenize.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from polydiv import cli; "
        "code = cli.main(sys.argv[2:]); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); sys.exit(code)"
    )
    src = Path(cli.__file__).resolve().parent.parent
    argv = ["divide", "--dividend", "x^4", "--divisor", "x^2-x-1"]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "quotient: x^2 + x + 2\nremainder: 3x + 2\n[]\n"


def test_main_domain_error_exit(capsys):
    assert cli.main(["divide", "--dividend", "x", "--divisor", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "zero polynomial" in out.err
    for argv in (["sequence", "--kind", "t", "-n", "3"], ["delta", "-k", "2"]):
        for divisor in ("0", "[0]"):
            assert cli.main(argv + ["--divisor", divisor]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "error: the zero polynomial has no leading coefficient\n"


def test_main_matrix_cap_is_domain_error(capsys):
    code = cli.main(
        ["divide", "--dividend", "x^80", "--divisor", "x", "--method", "det-ratio"]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_pure_direct_matrix_cap_is_domain_error(capsys):
    argv = ["delta", "--divisor", "x^2-x-1", "--variant", "pure-direct", "-k"]
    assert cli.main(argv + ["65"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: matrix order 65 exceeds the cap 64\n")
    assert cli.main(argv + ["64"]) == 0


def test_main_mismatch_exit(capsys, monkeypatch):
    def corrupted(f, g):
        good = cli.METHODS["longdiv"](f, g)
        return DivisionResult(
            quotient=good.quotient, remainder=good.remainder + Polynomial([1])
        )

    monkeypatch.setitem(cli.METHODS, "closed", corrupted)
    assert cli.main(["verify", "--dividend", "x^4", "--divisor", "x^2-x-1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "mismatch: method closed disagrees with longdiv: remainder coefficient of x^0 is 3, expected 2\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_main_refuses_result_that_fails_to_reconstruct(capsys, monkeypatch, fmt):
    def corrupted(f, g):
        good = long_divide(f, g)
        return DivisionResult(
            quotient=good.quotient + Polynomial([1]), remainder=good.remainder
        )

    monkeypatch.setitem(cli.METHODS, "closed", corrupted)
    argv = ["divide", "--dividend", "x^4", "--divisor", "x^2-x-1", "--method", "closed"]
    assert cli.main(argv + ["--format", fmt]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "mismatch: method closed fails to reconstruct the dividend\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int-to-str digit limit",
)
def test_main_mismatch_exit_with_unprintable_value(capsys, monkeypatch):
    # The quotient's constant term is 1/(3^700)^20, about 6680 digits.
    def corrupted(f, g):
        good = cli.METHODS["longdiv"](f, g)
        return DivisionResult(
            quotient=good.quotient + Polynomial([1]), remainder=good.remainder
        )

    monkeypatch.setitem(cli.METHODS, "closed", corrupted)
    argv = ["verify", "--dividend", "x^20", "--divisor", f"{3 ** 700}x - 1"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(
        "mismatch: method closed disagrees with longdiv: quotient coefficient of x^0 differs"
    )
    assert str(sys.get_int_max_str_digits()) in out.err


# x^20 / (3^700 x - 1): the quotient coefficient of x^(19-i) is
# 1/3^(700(i+1)), 334(i+1) digits, so x^7's, the 13th, is the first past
# the default limit of 4300 digits; the constant term has 6680.
WIDE = 3**700
WIDE_ARGV = ["--dividend", "x^20", "--divisor", f"{WIDE}x - 1"]
WIDE_QUOTIENT = Polynomial([Fraction(1, WIDE ** (20 - i)) for i in range(20)])
OUTPUT_REFUSAL = "error: a result value has more than 4300 decimal digits, the interpreter's int-to-str limit\n"


@pytest.fixture
def default_digit_limit(digit_limit):
    digit_limit(4300)


@pytest.fixture
def formed(monkeypatch):
    """Every value that a route or sequence holds to the output limit, in
    the order formed."""
    values = []
    printable = polycore._printable

    def recorded(value):
        values.append(value)
        return printable(value)

    for module in (polycore, closedform, detengine):
        monkeypatch.setattr(module, "_printable", recorded)
    return values


@pytest.mark.parametrize("method", list(cli.METHODS))
def test_divide_stops_at_the_first_coefficient_past_the_limit(capsys, default_digit_limit, formed, method):
    assert cli.main(["divide", *WIDE_ARGV, "--method", method]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", OUTPUT_REFUSAL)
    # Top-first, x^19 .. x^7, and nothing after x^7's 4342 digits.
    assert formed == [Fraction(1, WIDE**k) for k in range(1, 14)]
    assert 10**4341 < formed[-1].denominator < 10**4342


def test_library_calls_are_held_to_no_limit(capsys, default_digit_limit):
    whole = DivisionResult(quotient=WIDE_QUOTIENT, remainder=Polynomial([Fraction(1, WIDE**20)]))
    f, g = parse_polynomial("x^20"), parse_polynomial(f"{WIDE}x - 1")
    assert long_divide(f, g) == whole
    assert cli.main(["divide", *WIDE_ARGV]) == 2
    capsys.readouterr()
    assert long_divide(f, g) == whole
    assert 10**6679 < whole.remainder.coeffs[0].denominator < 10**6680


def test_divide_refuses_a_faulty_route_at_the_limit_before_its_check(capsys, monkeypatch, default_digit_limit):
    # A wrong answer past the limit ends in the limit's exit 2, not the
    # reconstruction check's exit 3: the route stops before the check runs.
    def corrupted(f, g):
        good = long_divide(f, g)
        return DivisionResult(quotient=good.quotient + Polynomial([1]), remainder=good.remainder)

    monkeypatch.setitem(cli.METHODS, "closed", corrupted)
    assert cli.main(["divide", *WIDE_ARGV, "--method", "closed"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", OUTPUT_REFUSAL)


@pytest.mark.parametrize("kind", ["s", "t"])
def test_sequence_stops_at_the_first_term_past_the_limit(capsys, default_digit_limit, formed, kind):
    # For x - 3^700 both sequences read 3^(700(r-1)), so the 14th term is
    # the first past the limit.
    assert cli.main(["sequence", "--divisor", f"x - {WIDE}", "--kind", kind, "-n", "20"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", OUTPUT_REFUSAL)
    assert formed == [Fraction(WIDE**k) for k in range(14)]
    formed.clear()
    sequence = cli.SEQUENCES[kind](divisor_views(parse_polynomial(f"x - {WIDE}")), 20)
    assert sequence == tuple(Fraction(WIDE**k) for k in range(20)) == tuple(formed)


@pytest.mark.parametrize(
    "argv, count",
    [
        *[(["divide", *WIDE_ARGV, "--method", method], 2) for method in cli.METHODS],
        *[(["sequence", "--divisor", f"x - {WIDE}", "--kind", kind, "-n", "20"], 3) for kind in cli.SEQUENCES],
    ],
    ids=[*cli.METHODS, *[f"sequence-{kind}" for kind in cli.SEQUENCES]],
)
def test_routes_stop_at_a_lowered_limit(capsys, digit_limit, formed, argv, count):
    # At 640 digits the second quotient coefficient, 1/3^1400 with 668
    # digits, is the first past the limit, as is the third term, 3^1400.
    digit_limit(640)
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", OUTPUT_REFUSAL.replace("4300", "640"))
    assert len(formed) == count
    assert 10**667 < max(formed[-1].numerator, formed[-1].denominator) < 10**668


# The console contract: started as pip's script or by -m, under the
# default int-to-str limit or 640, the least CPython takes and below the
# 1234 digits of 2^4096, the command line replies as main does. A row
# names the start, the limit (LIMITS gives the child's flags and
# environment), argv, the exit code and text the reply shows.
LIMITS = {
    "default": ([], {}),
    "env-640": ([], {"PYTHONINTMAXSTRDIGITS": "640"}),
    "flag-640": (["-X", "int_max_str_digits=640"], {}),
}
X4 = ["divide", "--dividend", "x^4", "--divisor", "x^2-x-1"]
X2 = ["divide", "--dividend", "x^2-1", "--divisor"]
PURE_DIRECT = ["delta", "--divisor", "x^2-x-1", "--variant", "pure-direct", "-k"]
AGREEMENT = '"agreement": {"longdiv": true, "closed": true, "det-formula": true, "det-ratio": true}'
ON_EVERY_ENTRY = {
    "verify-json": (["verify", *X4[1:], "--format", "json"], 0, AGREEMENT),
    "divide-det-ratio": ([*X4, "--method", "det-ratio"], 0, "quotient: x^2 + x + 2\n"),
    "zero-divisor": (["divide", "--dividend", "x", "--divisor", "0"], 2, "cannot divide by the zero polynomial"),
    "long-count": (["delta", "--divisor", "x^2-x-1", "-k", "9" * 5000], 1, "characters left out]"),
}


def _row(entry, limit, name, argv, code, shows):
    marks = needs_digit_limit if limit != "default" or "4300" in shows else ()
    return pytest.param(entry, limit, argv, code, shows, marks=marks, id=f"{entry}-{limit}-{name}")


@pytest.mark.parametrize(
    "entry, limit, argv, code, shows",
    [
        *[_row(e, "default", k, *c) for e in ("script", "polydiv", "polydiv.cli") for k, c in ON_EVERY_ENTRY.items()],
        _row("script", "default", "success", [*X2, "x-1"], 0, "quotient: x + 1\nremainder: 0\n"),
        _row("script", "default", "domain-error", [*X2, "0"], 2, "error: cannot divide by the zero polynomial\n"),
        _row("script", "default", "pure-direct", [*PURE_DIRECT, "2"], 0, "2\n"),
        _row("script", "default", "pure-direct-cap", [*PURE_DIRECT, "65"], 2, "matrix order 65 exceeds the cap 64"),
        _row("script", "default", "wide", ["divide", *WIDE_ARGV], 2, "more than 4300 decimal digits"),
        _row("script", "env-640", "wide", ["divide", *WIDE_ARGV], 2, "more than 640 decimal digits"),
        _row("script", "env-640", "divide", X4, 0, "quotient: x^2 + x + 2\nremainder: 3x + 2\n"),
        _row("script", "flag-640", "divide", X4, 0, "quotient: x^2 + x + 2\nremainder: 3x + 2\n"),
    ],
)
def test_console_entry_points_reply_as_main(request, capsys, tmp_path, entry, limit, argv, code, shows):
    # -I would drop PYTHONINTMAXSTRDIGITS and PYTHONPATH, so the child gets
    # the environment without its PYTHON* variables, src on its path, and -s.
    src = Path(cli.__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    flags, extra = LIMITS[limit]
    env.update(extra, PYTHONPATH=str(src))
    start = ["-m", entry]
    if entry == "script":
        # What pip writes from [project.scripts]: import the named
        # function and exit with what it returns.
        pyproject = (src.parent / "pyproject.toml").read_text()
        module, name = re.search(r'^\[project\.scripts\]\npolydiv = "(.*):(.*)"$', pyproject, re.M).groups()
        start = ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]
    proc = subprocess.run(
        [sys.executable, "-s", *flags, *start, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    if hasattr(sys, "set_int_max_str_digits"):
        request.getfixturevalue("digit_limit")(4300 if limit == "default" else 640)
    assert cli.main(argv) == code
    out = capsys.readouterr()
    assert shows in out.out + out.err
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)


def test_check_catches_a_fault_in_clearing_denominators(capsys, monkeypatch):
    # With D doubled, every formula route doubles q. Neither long_divide
    # nor the check's product clears through the helper, so longdiv stays
    # healthy and the check refuses the three doubled quotients; a product
    # that shared the helper would halve g*q and pass them.
    clear = polycore._clear_denominators

    def doubled(values):
        den, ints = clear(values)
        return 2 * den, ints

    for module in (polycore, closedform, detengine):
        monkeypatch.setattr(module, "_clear_denominators", doubled)
    argv = ["--dividend", "x^4", "--divisor", "x^2-x-1"]
    assert cli.main(["divide", *argv]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ("quotient: x^2 + x + 2\nremainder: 3x + 2\n", "")
    for method in ("closed", "det-formula", "det-ratio"):
        assert cli.main(["divide", *argv, "--method", method]) == 3
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"mismatch: method {method} fails to reconstruct the dividend\n")
    # verify's reference keeps the healthy quotient x^2 + x + 2.
    assert cli.main(["verify", *argv]) == 3
    out = capsys.readouterr()
    assert out.err == "mismatch: method closed disagrees with longdiv: quotient coefficient of x^0 is 4, expected 2\n"


def test_main_sequence_and_delta(capsys):
    assert cli.main(["sequence", "--divisor", "x^2-x-1", "--kind", "t", "-n", "5"]) == 0
    assert capsys.readouterr().out == "1, 1, 2, 3, 5\n"
    assert cli.main(["delta", "--divisor", "x^2-x-1", "-k", "2", "--variant", "pure-direct"]) == 0
    assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sequence", "--divisor", "x^2-x-1", "--kind", "s", "-n"],
        ["sequence", "--divisor", "x^2-x-1", "--kind", "t", "-n"],
        ["delta", "--divisor", "x^2-x-1", "--variant", "pure-closed", "-k"],
        ["delta", "--divisor", "x^2-x-1", "--variant", "pure-flipped", "-k"],
    ],
    ids=["sequence-s", "sequence-t", "delta-pure-closed", "delta-pure-flipped"],
)
def test_counts_capped_at_degree_cap(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "MAX_DEGREE", 8)
    assert cli.main(argv + ["8"]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["9"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"parse error: {argv[-1]} 9 exceeds the degree cap 8\n"
    for count in ("0", "-1"):
        assert cli.main(argv + [count]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"parse error: {argv[-1]} {count} is below the least count 1\n"


def test_verify_small_dividend_trivial_agreement(capsys):
    assert cli.main(["verify", "--dividend", "x", "--divisor", "x^3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quotient"] == []
    assert payload["remainder"] == ["0", "1"]
    assert all(payload["agreement"].values())


CAPPED_VERIFY = ["verify", "--dividend", "x^80 + 3x + 1", "--divisor", "x^2 - x - 1"]


def test_verify_skips_route_past_matrix_cap(capsys):
    # det-ratio needs a matrix of order 79 here, past its cap of 64.
    assert cli.main(CAPPED_VERIFY + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agreement"] == {"longdiv": True, "closed": True, "det-formula": True}
    assert payload["skipped"] == {"det-ratio": "matrix order 79 exceeds the cap 64"}
    assert cli.main(CAPPED_VERIFY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "agreement: longdiv=yes closed=yes det-formula=yes"
    assert lines[-1] == "skipped: det-ratio (matrix order 79 exceeds the cap 64)"


def test_verify_text_without_skips(capsys):
    assert cli.main(["verify", "--dividend", "x^4", "--divisor", "x^2-x-1"]) == 0
    assert capsys.readouterr().out == (
        "quotient: x^2 + x + 2\nremainder: 3x + 2\n"
        "agreement: longdiv=yes closed=yes det-formula=yes det-ratio=yes\n"
    )


def test_verify_mismatch_while_route_skipped(capsys, monkeypatch):
    def corrupted(f, g):
        good = cli.METHODS["longdiv"](f, g)
        return DivisionResult(
            quotient=good.quotient + Polynomial([1]), remainder=good.remainder
        )

    monkeypatch.setitem(cli.METHODS, "det-formula", corrupted)
    assert cli.main(CAPPED_VERIFY) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "mismatch" in out.err and "det-formula" in out.err


def test_verify_refuses_a_reference_that_fails_to_reconstruct(capsys, monkeypatch):
    # Every route agrees with the reference, so only the final check sees the fault.
    def corrupted(f, g):
        good = long_divide(f, g)
        return DivisionResult(
            quotient=good.quotient + Polynomial([1]), remainder=good.remainder
        )

    for tag in cli.METHODS:
        monkeypatch.setitem(cli.METHODS, tag, corrupted)
    assert cli.main(["verify", "--dividend", "x^4", "--divisor", "x^2-x-1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "mismatch: method longdiv fails to reconstruct the dividend\n"


def test_verify_ends_on_a_route_error_other_than_the_cap(capsys, monkeypatch):
    # Only the matrix cap skips a route; any other domain error ends verify.
    def failing(f, g):
        raise DegreeTooSmall("boom")

    monkeypatch.setitem(cli.METHODS, "closed", failing)
    assert cli.main(["verify", "--dividend", "x^4", "--divisor", "x^2-x-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: boom\n"


def test_verify_holds_det_formula_to_mixed_deltas(capsys, monkeypatch):
    kernel = detengine._mixed_deltas

    def sign_flipped(f, g, kmax):
        return [(-1) ** k * delta for k, delta in enumerate(kernel(f, g, kmax))]

    monkeypatch.setattr(detengine, "_mixed_deltas", sign_flipped)
    assert cli.main(["verify", "--dividend", "x^5+2x^3+x+7", "--divisor", "2x^2-x-1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "mismatch: method det-formula disagrees with longdiv: "
        "quotient coefficient of x^0 is -13/16, expected 13/16\n"
    )


# The argv grammar below draws every subcommand, option and choice. At
# most one option of an argv is spoiled: left out, or given a near-valid
# value. Coefficients stay within 16 bits and generated degrees within 40,
# so each example runs in milliseconds; -h/--help is left out, since
# argparse exits 0 through SystemExit by design.
EXIT_PREFIXES = {1: "parse error: ", 2: "error: ", 3: "mismatch: "}
bits16 = st.integers(min_value=-(2**16), max_value=2**16)
coefficients16 = st.builds(Fraction, bits16, st.integers(min_value=1, max_value=2**16))


@st.composite
def polynomial_texts(draw, edits=0):
    coeffs = draw(st.lists(coefficients16, max_size=41))
    if draw(st.booleans()):
        text = render_polynomial(Polynomial(coeffs))
    else:
        text = "[" + ", ".join(map(str, coeffs)) + "]"
    for _ in range(edits):
        # One character deleted or inserted, never a digit.
        at = draw(st.integers(min_value=0, max_value=len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from("x^+-/[], −y.")) + text[at:]
    return text


# Each option maps to its valid values and its near-valid ones.
TEXT = (
    polynomial_texts(),
    st.one_of(
        polynomial_texts(edits=1),
        polynomial_texts(edits=2),
        st.sampled_from(
            ("", " ", "0", "[]", "[1, 2", "[1/0]", "x^", "x^-1", "x^513", "1/0",
             "2x^2 +", "+-x", "x^2 x", "3x^2 − 1", "[1, -2, 3/4]")
        ),
    ),
)
COUNT = (
    st.integers(min_value=-2, max_value=520).map(str),
    st.sampled_from(("", "3.5", "1e3", "0x10", "five")),
)


def _choice(valid):
    return st.sampled_from(valid), st.sampled_from(("nope", "", valid[0].upper()))


FORMAT = _choice(("text", "json"))
SUBCOMMANDS = {
    "divide": {
        "--dividend": TEXT,
        "--divisor": TEXT,
        "--method": _choice(tuple(cli.METHODS)),
        "--format": FORMAT,
    },
    "verify": {"--dividend": TEXT, "--divisor": TEXT, "--format": FORMAT},
    "delta": {"--divisor": TEXT, "-k": COUNT, "--variant": _choice(tuple(cli.DELTAS))},
    "sequence": {"--divisor": TEXT, "--kind": _choice(tuple(cli.SEQUENCES)), "-n": COUNT},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(tuple(SUBCOMMANDS) + ("frobnicate",)))
    options = SUBCOMMANDS.get(command, {})
    spoiled = draw(st.sampled_from(tuple(options))) if options and draw(st.booleans()) else None
    left_out = draw(st.booleans())
    argv = [command]
    for flag in draw(st.permutations(tuple(options))):
        if flag == spoiled and left_out:
            continue
        valid, near_valid = options[flag]
        value = draw(near_valid if flag == spoiled else valid)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@given(argvs())
@settings(max_examples=400, deadline=None)
def test_main_over_argv_grammar(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            raise AssertionError(f"main exited through SystemExit({exc.code})") from None
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue() != ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(EXIT_PREFIXES[code])
