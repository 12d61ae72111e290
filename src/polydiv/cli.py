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
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .closedform import S_MONIC, T_GENERAL, divide_closed, s_sequence, t_sequence
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
    Polynomial,
    PolyDivError,
    divisor_views,
    long_divide,
)

# Input guards. Exact arithmetic has no overflow, so the only protection
# against hostile input is refusing it early.
DEFAULT_MAX_DEGREE = 512
MAX_COEFF_BITS = 4096
# 2^4096 has 1234 decimal digits, so no value within the bit cap needs a
# longer digit run. Longer runs are refused before int() sees them: past
# the interpreter's int-to-str limit it raises a bare ValueError.
MAX_DIGITS = 1234


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
    """Input is well-formed but larger than the configured caps allow."""


class Mismatch(PolyDivError):
    """Two division methods produced different exact results."""


class OutputTooLarge(PolyDivError):
    """A result value has too many decimal digits to print."""


def _max_degree() -> int:
    raw = os.environ.get("POLYDIV_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        cap = int(raw)
    except ValueError:
        raise LimitExceeded(f"POLYDIV_MAX_DEGREE is not an integer: {raw!r}")
    if cap < 0:
        raise LimitExceeded(f"POLYDIV_MAX_DEGREE is negative: {raw!r}")
    return cap


def _check_coefficient(value: Fraction, column: int | None = None) -> Fraction:
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_COEFF_BITS:
        raise LimitExceeded(
            f"coefficient needs {bits} bits, cap is {MAX_COEFF_BITS}", column
        )
    return value


# The lookbehind anchors each try at the start of a run, keeping the scan
# linear in the text.
_LONG_DIGIT_RUN_RE = re.compile(r"(?<!\d)\d{%d,}" % (MAX_DIGITS + 1))
_RATIONAL_RE = re.compile(r"(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?")
_TERM_RE = re.compile(
    r"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*)?(?P<var>x(?:\s*\^\s*(?P<exp>[+-]?\d+))?)?"
)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


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
    cap = _max_degree()
    if len(entries) - 1 > cap:
        raise LimitExceeded(f"coefficient list implies degree {len(entries) - 1}, cap is {cap}")
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
    run = _LONG_DIGIT_RUN_RE.search(src)
    if run is not None:
        raise LimitExceeded(
            f"digit run of {len(run.group())} digits, cap is {MAX_DIGITS}", run.start() + 1
        )
    if src[pos] == "[":
        return _parse_list(src)

    powers: dict[int, Fraction] = {}
    first = True
    cap = _max_degree()
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
        coeff = Fraction(1) if match.group("num") is None else _rational(match, column)
        if match.group("var") is not None:
            exp = int(match.group("exp")) if match.group("exp") else 1
            if exp < 0:
                raise ParseError(f"negative exponent {exp}", column)
            if exp > cap:
                raise LimitExceeded(f"exponent {exp} exceeds degree cap {cap}", column)
        else:
            exp = 0
        _check_coefficient(coeff, column)
        powers[exp] = powers.get(exp, Fraction(0)) + sign * coeff
        first = False
        pos = _skip_ws(src, match.end())

    top = max(powers)
    coeffs = [powers.get(i, Fraction(0)) for i in range(top + 1)]
    for i, value in enumerate(coeffs):
        _check_coefficient(value)
    return Polynomial(coeffs)


def _exact_str(value: Fraction) -> str:
    # CPython refuses int-to-str conversions past a digit limit, a guard
    # against quadratic-time conversion; that refusal is a domain error.
    try:
        return str(value)
    except ValueError:
        raise OutputTooLarge(
            f"a result value has more than {sys.get_int_max_str_digits()} "
            "decimal digits, the interpreter's int-to-str limit"
        ) from None


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


@dataclass(frozen=True)
class DivisionReport:
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
SEQUENCES = {S_MONIC: s_sequence, T_GENERAL: t_sequence}


def _reconstructed(
    method: str, f: Polynomial, g: Polynomial, result: DivisionResult
) -> DivisionResult:
    if not result.reconstructs(f, g):
        raise Mismatch(f"method {method} fails to reconstruct the dividend")
    return result


def cmd_divide(dividend: str, divisor: str, method: str = "longdiv") -> DivisionReport:
    f = parse_polynomial(dividend)
    g = parse_polynomial(divisor)
    result = _reconstructed(method, f, g, METHODS[method](f, g))
    return DivisionReport(dividend, divisor, method, result)


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
    cap = _max_degree()
    if count > cap:
        raise LimitExceeded(f"{flag} {count} exceeds the degree cap {cap} (POLYDIV_MAX_DEGREE)")


def cmd_delta(divisor: str, k: int, variant: str) -> str:
    _check_count("-k", k)
    spec = DeltaPureSpec(views=divisor_views(parse_polynomial(divisor)), k=k)
    if variant not in DELTAS:
        raise ParseError(f"unknown delta variant {variant!r}")
    return _exact_str(DELTAS[variant](spec))


def cmd_sequence(divisor: str, kind: str, count: int) -> str:
    _check_count("-n", count)
    views = divisor_views(parse_polynomial(divisor))
    if kind not in SEQUENCES:
        raise ParseError(f"unknown sequence kind {kind!r}")
    return ", ".join(_exact_str(term) for term in SEQUENCES[kind](views, count).terms)


def _handle_report(args: argparse.Namespace) -> str:
    if args.command == "verify":
        report = cmd_verify(args.dividend, args.divisor)
    else:
        report = cmd_divide(args.dividend, args.divisor, args.method)
    return report.to_json() if args.format == "json" else report.to_text()


# Built once per process; parse_args leaves the parser as it was.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydiv",
        description="Exact polynomial division by four routes, held to exact agreement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    divide = sub.add_parser("divide", help="divide once with one method")
    divide.add_argument("--dividend", required=True)
    divide.add_argument("--divisor", required=True)
    divide.add_argument("--method", choices=tuple(METHODS), default="longdiv")
    divide.add_argument("--format", choices=("text", "json"), default="text")
    divide.set_defaults(handler=_handle_report)

    verify = sub.add_parser("verify", help="run all methods and compare exactly")
    verify.add_argument("--dividend", required=True)
    verify.add_argument("--divisor", required=True)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=_handle_report)

    delta = sub.add_parser("delta", help="tail determinant of one divisor")
    delta.add_argument("--divisor", required=True)
    delta.add_argument("-k", type=int, required=True)
    delta.add_argument("--variant", choices=tuple(DELTAS), default="pure-closed")
    delta.set_defaults(handler=lambda args: cmd_delta(args.divisor, args.k, args.variant))

    sequence = sub.add_parser("sequence", help="terms of a divisor recurrence")
    sequence.add_argument("--divisor", required=True)
    sequence.add_argument("--kind", choices=tuple(SEQUENCES), required=True)
    sequence.add_argument("-n", dest="count", type=int, required=True)
    sequence.set_defaults(handler=lambda args: cmd_sequence(args.divisor, args.kind, args.count))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        output = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except Mismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 3
    except PolyDivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


def run() -> None:
    sys.exit(main())
