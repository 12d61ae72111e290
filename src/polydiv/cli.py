"""Command-line front end: parse, divide, cross-check, print.

Four subcommands: divide (one method), verify (all methods, compared
exactly), delta (tail determinants), sequence (recurrence terms).
Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 parse error, 2 domain error, 3 cross-method mismatch.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .closedform import divide_closed, s_sequence, t_sequence
from .detengine import (
    DeltaPureSpec,
    MatrixTooLarge,
    delta_pure_closed,
    delta_pure_direct,
    divide_det_formula,
    divide_det_ratio,
)
from .polycore import (
    DivisionResult,
    OutputTooLarge,
    Polynomial,
    PolyDivError,
    _digit_limit,
    call_with_output_limit,
    divisor_views,
    long_divide,
)

# Input guards. Exact arithmetic has no overflow, so the only protection
# against hostile input is refusing it early.
MAX_DEGREE = 512
MAX_COEFF_BITS = 4096
# 2^4096 has 1234 decimal digits, so no value within the bit cap needs a
# longer digit run. Longer runs are refused before int() sees them, as is
# any run past the interpreter's int-to-str limit, which int() and str()
# refuse with a bare ValueError; so the count here avoids str().
MAX_DIGITS = math.floor(MAX_COEFF_BITS * math.log10(2)) + 1
# A longer parse refusal keeps only its head and tail, not a whole operand.
MAX_MESSAGE = 300


class ParseError(PolyDivError):
    """Malformed polynomial text; carries a 1-based column when known."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.column is None:
            return base
        return f"column {self.column}: {base}"


class LimitExceeded(ParseError):
    """Input is well-formed but larger than the fixed caps allow."""


class Mismatch(PolyDivError):
    """Two division methods produced different exact results."""


def _check_coefficient(value: Fraction | int, column: int | None = None) -> Fraction | int:
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_COEFF_BITS:
        raise LimitExceeded(
            f"coefficient needs {bits} bits, cap is {MAX_COEFF_BITS}", column
        )
    return value


# Runs past a digit cap, compiled once per cap. The lookbehind anchors
# each try at the start of a run, keeping the scan linear in the text.
_long_digit_run = functools.cache(lambda cap: re.compile(r"(?<!\d)\d{%d,}" % (cap + 1)))
_RATIONAL_RE = re.compile(r"(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?")
_TERM_RE = re.compile(
    r"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*)?(?P<var>x(?:\s*\^\s*(?P<exp>[+-]?\d+))?)?"
)
# Regex \s accepts exactly the code points str.isspace() accepts
# (test_skip_ws_agrees_with_isspace).
_WS_RE = re.compile(r"\s*")


def _skip_ws(text: str, pos: int) -> int:
    return _WS_RE.match(text, pos).end()


def _rational(match: re.Match, column: int) -> Fraction:
    # The num and optional den groups shared by both syntaxes.
    den = int(match.group("den") or 1)
    if den == 0:
        raise ParseError("zero denominator", column)
    return Fraction(int(match.group("num")), den)


def _parse_list(text: str) -> Polynomial:
    # Ascending coefficient-list syntax: "[1/2, -2, 0, 0, 3]".
    open_at = text.index("[")
    close_at = text.find("]", open_at)
    if close_at < 0:
        raise ParseError("unterminated coefficient list", column=len(text))
    after = _skip_ws(text, close_at + 1)
    if after < len(text):
        raise ParseError("unexpected text after the coefficient list", column=after + 1)
    inner = text[open_at + 1 : close_at]
    if not inner.strip():
        return Polynomial()
    entries = inner.split(",")
    if len(entries) - 1 > MAX_DEGREE:
        raise LimitExceeded(
            f"coefficient list implies degree {len(entries) - 1}, cap is {MAX_DEGREE}"
        )
    coeffs = []
    offset = open_at + 1
    for entry in entries:
        column = offset + (len(entry) - len(entry.lstrip())) + 1
        body = entry.strip()
        sign = 1
        if body.startswith(("+", "-")):
            sign = -1 if body[0] == "-" else 1
            body = body[1:].strip()
        match = _RATIONAL_RE.fullmatch(body)
        if not match:
            raise ParseError(f"bad list entry {entry.strip()!r}", column)
        coeffs.append(_check_coefficient(sign * _rational(match, column), column))
        offset += len(entry) + 1
    return Polynomial(coeffs)


def parse_polynomial(text: str) -> Polynomial:
    """Canonical polynomial from human syntax.

    Terms look like "3x^4", "-x", "1/2"; they are joined by + or - and
    duplicate exponents are summed. "[a0, a1, ...]" gives coefficients
    directly, ascending. The Unicode minus sign is accepted.
    """
    src = text.replace("−", "-")
    pos = _skip_ws(src, 0)
    if pos == len(src):
        raise ParseError("empty polynomial text", column=pos + 1)
    cap = min(MAX_DIGITS, _digit_limit() or MAX_DIGITS)
    run = _long_digit_run(cap).search(src)
    if run is not None:
        raise LimitExceeded(f"digit run of {len(run.group())} digits, cap is {cap}", run.start() + 1)
    if src[pos] == "[":
        return _parse_list(src)

    powers: dict[int, int | Fraction] = {}
    first = True
    while pos < len(src):
        sign = 1
        if src[pos] in "+-":
            sign = -1 if src[pos] == "-" else 1
            pos = _skip_ws(src, pos + 1)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", column=pos + 1)
        match = _TERM_RE.match(src, pos)
        if match is None or match.end() == pos:
            raise ParseError("expected a term", column=pos + 1)
        column = pos + 1
        # One Fraction per term, and only for a term with a denominator.
        if match.group("den") is not None:
            coeff = _rational(match, column)
        elif match.group("num") is not None:
            coeff = int(match.group("num"))
        else:
            coeff = 1
        if match.group("var") is not None:
            exp = int(match.group("exp")) if match.group("exp") else 1
            if exp < 0:
                raise ParseError(f"negative exponent {exp}", column)
            if exp > MAX_DEGREE:
                raise LimitExceeded(f"exponent {exp} exceeds degree cap {MAX_DEGREE}", column)
        else:
            exp = 0
        _check_coefficient(coeff, column)
        powers[exp] = powers.get(exp, 0) + (coeff if sign > 0 else -coeff)
        first = False
        pos = _skip_ws(src, match.end())

    top = max(powers)
    coeffs = [powers.get(i, 0) for i in range(top + 1)]
    for value in coeffs:
        _check_coefficient(value)
    return Polynomial(coeffs)


def _exact_str(value: Fraction) -> str:
    # CPython refuses int-to-str conversions past a digit limit, a guard
    # against quadratic-time conversion; that refusal is a domain error.
    try:
        return str(value)
    except ValueError:
        raise OutputTooLarge() from None


def render_polynomial(p: Polynomial) -> str:
    """Human text, descending powers; parse_polynomial inverts this."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = _exact_str(mag)
        else:
            power = "x" if i == 1 else f"x^{i}"
            body = power if mag == 1 else f"{_exact_str(mag)}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _coeff_strings(p: Polynomial) -> tuple[str, ...]:
    return tuple(_exact_str(c) for c in p.coeffs)


class DivisionReport(NamedTuple):
    """One division outcome. ``quotient`` and ``remainder`` give its
    coefficients ascending, each an exact "num/den" or "num" string,
    derived from ``result`` when read."""

    dividend: str
    divisor: str
    method: str
    result: DivisionResult
    agreement: dict[str, bool] | None = None
    skipped: dict[str, str] | None = None

    @property
    def quotient(self) -> tuple[str, ...]:
        return _coeff_strings(self.result.quotient)

    @property
    def remainder(self) -> tuple[str, ...]:
        return _coeff_strings(self.result.remainder)

    def to_json(self) -> str:
        payload = {
            "dividend": self.dividend,
            "divisor": self.divisor,
            "method": self.method,
            "quotient": list(self.quotient),
            "remainder": list(self.remainder),
        }
        if self.agreement is not None:
            payload["agreement"] = self.agreement
        if self.skipped:
            payload["skipped"] = self.skipped
        return json.dumps(payload)

    def to_text(self) -> str:
        lines = [
            f"quotient: {render_polynomial(self.result.quotient)}",
            f"remainder: {render_polynomial(self.result.remainder)}",
        ]
        if self.agreement is not None:
            flags = " ".join(
                f"{tag}={'yes' if ok else 'no'}" for tag, ok in self.agreement.items()
            )
            lines.append(f"agreement: {flags}")
        if self.skipped:
            reasons = "; ".join(f"{tag} ({reason})" for tag, reason in self.skipped.items())
            lines.append(f"skipped: {reasons}")
        return "\n".join(lines)


# Dispatch table for the four division routes. Tests may swap an entry
# to prove the verify command actually notices a wrong method.
METHODS = {
    "longdiv": long_divide,
    "closed": divide_closed,
    "det-formula": divide_det_formula,
    "det-ratio": divide_det_ratio,
}

# One table per subcommand: each gives argparse its choices and the
# command its lookup.
DELTAS = {
    "pure-direct": delta_pure_direct,
    "pure-closed": delta_pure_closed,
    "pure-flipped": functools.partial(delta_pure_closed, flipped=True),
}
SEQUENCES = {"s": s_sequence, "t": t_sequence}


def _reconstructed(
    method: str, f: Polynomial, g: Polynomial, result: DivisionResult
) -> DivisionResult:
    if not result.reconstructs(f, g):
        raise Mismatch(f"method {method} fails to reconstruct the dividend")
    return result


def cmd_divide(dividend: str, divisor: str, method: str) -> DivisionReport:
    f = parse_polynomial(dividend)
    g = parse_polynomial(divisor)
    # The route stops at the first coefficient that could not be printed,
    # so neither the rest of it nor the reconstruction check runs.
    result = call_with_output_limit(METHODS[method], f, g)
    return DivisionReport(dividend, divisor, method, _reconstructed(method, f, g, result))


def cmd_verify(dividend: str, divisor: str) -> DivisionReport:
    """Run every method and demand exact agreement with long division.

    A route that hits its matrix cap is left out of the agreement and
    named, with the reason, under skipped."""
    f = parse_polynomial(dividend)
    g = parse_polynomial(divisor)
    reference = METHODS["longdiv"](f, g)
    agreement: dict[str, bool] = {}
    skipped: dict[str, str] = {}
    for tag, method in METHODS.items():
        try:
            result = reference if tag == "longdiv" else method(f, g)
        except MatrixTooLarge as exc:
            skipped[tag] = str(exc)
            continue
        agreement[tag] = result == reference
        if agreement[tag]:
            continue
        if result.quotient != reference.quotient:
            part, got, want = "quotient", result.quotient, reference.quotient
        else:
            part, got, want = "remainder", result.remainder, reference.remainder
        i = next(i for i, c in enumerate((got - want).coeffs) if c)
        try:
            values = f"is {_exact_str(got.coeff(i))}, expected {_exact_str(want.coeff(i))}"
        except OutputTooLarge as exc:
            values = f"differs, and {exc}"
        raise Mismatch(
            f"method {tag} disagrees with longdiv: {part} coefficient of x^{i} {values}"
        )
    reference = _reconstructed("longdiv", f, g, reference)
    return DivisionReport(dividend, divisor, "longdiv", reference, agreement, skipped)


def _check_count(flag: str, count: int) -> None:
    # The sequence and delta recurrences cost O(count * m) exact
    # operations on terms that grow with count, so the degree cap
    # bounds the count as well.
    if count < 1:
        raise ParseError(f"{flag} {count} is below the least count 1")
    if count > MAX_DEGREE:
        raise LimitExceeded(f"{flag} {count} exceeds the degree cap {MAX_DEGREE}")


def cmd_delta(divisor: str, k: int, variant: str) -> str:
    _check_count("-k", k)
    spec = DeltaPureSpec(views=divisor_views(parse_polynomial(divisor)), k=k)
    return _exact_str(DELTAS[variant](spec))


def cmd_sequence(divisor: str, kind: str, count: int) -> str:
    _check_count("-n", count)
    views = divisor_views(parse_polynomial(divisor))
    # The terms print in order, so the first one past the limit ends the run.
    terms = call_with_output_limit(SEQUENCES[kind], views, count)
    return ", ".join(_exact_str(term) for term in terms)


def _render(report: DivisionReport, args: argparse.Namespace) -> str:
    return report.to_json() if args.format == "json" else report.to_text()


class _Parser(argparse.ArgumentParser):
    # A usage error is a parse error; subparsers inherit the class.
    def error(self, message: str):
        raise ParseError(message)


def _operand(parser: argparse.ArgumentParser, flag: str) -> None:
    # argparse reads a separate value that starts with a minus as an option.
    text = f"polynomial text such as x^2-x-1; give one that starts with a minus as {flag}=-x^2+1"
    parser.add_argument(flag, required=True, help=text)


# Built once per process; parse_args leaves the parser as it was.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polydiv",
        description="Exact polynomial division by four routes, held to exact agreement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    divide = sub.add_parser("divide", help="divide once with one method")
    _operand(divide, "--dividend")
    _operand(divide, "--divisor")
    divide.add_argument("--method", choices=tuple(METHODS), default="longdiv")
    divide.add_argument("--format", choices=("text", "json"), default="text")
    divide.set_defaults(
        handler=lambda args: _render(cmd_divide(args.dividend, args.divisor, args.method), args)
    )

    verify = sub.add_parser("verify", help="run all methods and compare exactly")
    _operand(verify, "--dividend")
    _operand(verify, "--divisor")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=lambda args: _render(cmd_verify(args.dividend, args.divisor), args))

    delta = sub.add_parser("delta", help="tail determinant of one divisor")
    _operand(delta, "--divisor")
    delta.add_argument("-k", type=int, required=True)
    delta.add_argument("--variant", choices=tuple(DELTAS), default="pure-closed")
    delta.set_defaults(handler=lambda args: cmd_delta(args.divisor, args.k, args.variant))

    sequence = sub.add_parser("sequence", help="terms of a divisor recurrence")
    _operand(sequence, "--divisor")
    sequence.add_argument("--kind", choices=tuple(SEQUENCES), required=True)
    sequence.add_argument("-n", dest="count", type=int, required=True)
    sequence.set_defaults(handler=lambda args: cmd_sequence(args.divisor, args.kind, args.count))

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        output = args.handler(args)
    except ParseError as exc:
        message = str(exc)
        if len(message) > MAX_MESSAGE:
            half = MAX_MESSAGE // 2
            message = f"{message[:half]}[{len(message) - 2 * half} characters left out]{message[-half:]}"
        print(f"parse error: {message}", file=sys.stderr)
        return 1
    except Mismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except PolyDivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
