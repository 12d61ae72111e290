"""Parsing, rendering, reports, subcommands, and the exit-code contract."""
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydiv import cli
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
from polydiv.polycore import DivisionResult, Polynomial, ZeroDivisor, long_divide

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


def test_degree_cap_enforced():
    with pytest.raises(LimitExceeded):
        parse_polynomial("x^513")
    parse_polynomial("x^512")
    with pytest.raises(LimitExceeded):
        parse_polynomial("[" + ", ".join(["1"] * 514) + "]")


def test_degree_cap_env_override(monkeypatch):
    monkeypatch.setenv("POLYDIV_MAX_DEGREE", "4")
    with pytest.raises(LimitExceeded):
        parse_polynomial("x^5")
    assert parse_polynomial("x^4") == Polynomial([0, 0, 0, 0, 1])
    monkeypatch.setenv("POLYDIV_MAX_DEGREE", "not-a-number")
    with pytest.raises(LimitExceeded):
        parse_polynomial("x")
    monkeypatch.setenv("POLYDIV_MAX_DEGREE", "-3")
    with pytest.raises(LimitExceeded, match="POLYDIV_MAX_DEGREE"):
        parse_polynomial("1")


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
    # 5000 digits is past CPython's default int-to-str limit of 4300.
    argv = ["divide", "--dividend", dividend.format(run="9" * 5000), "--divisor", "x-1"]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"column {column}: digit run of 5000 digits, cap is {cli.MAX_DIGITS}" in out.err
    assert "Traceback" not in out.err


def test_digit_cap_covers_every_value_within_bit_cap():
    widest = 2 ** cli.MAX_COEFF_BITS - 1
    assert len(str(widest)) == cli.MAX_DIGITS
    assert parse_polynomial(str(widest)) == Polynomial([widest])


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
    report = cmd_divide("3x^2 - 1", "3x^2 - 1")
    assert report.quotient == ("1",)
    assert report.remainder == ()


def test_cmd_divide_small_dividend():
    report = cmd_divide("x", "x^3")
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
    report = cmd_divide("x^4", "x^2 - x - 1")
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


def test_unknown_delta_variant_and_sequence_kind():
    with pytest.raises(ParseError, match="unknown delta variant 'pure-bogus'"):
        cmd_delta("x^2-x-1", 1, "pure-bogus")
    with pytest.raises(ParseError, match="unknown sequence kind 'u'"):
        cmd_sequence("x^2-x-1", "u", 3)


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


def test_main_domain_error_exit(capsys):
    assert cli.main(["divide", "--dividend", "x", "--divisor", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "zero polynomial" in out.err


def test_main_matrix_cap_is_domain_error(capsys):
    code = cli.main(
        ["divide", "--dividend", "x^80", "--divisor", "x", "--method", "det-ratio"]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


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
    monkeypatch.setenv("POLYDIV_MAX_DEGREE", "8")
    assert cli.main(argv + ["8"]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["9"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "cap 8" in out.err and "POLYDIV_MAX_DEGREE" in out.err


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
