"""Exactness check of one CLI reply, in the benchmark's own arithmetic.

Nothing here imports polydiv: the quotient and remainder are read back
from the reply text and the division identity f == g*q + r with
deg r < deg g is decided with Fractions on ascending coefficient lists.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import ROUTES, Request

_TERM = re.compile(r"(?P<mag>\d+(?:/\d+)?)?(?P<var>x(?:\^(?P<exp>\d+))?)?")


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def parse_text_poly(text: str) -> list[Fraction]:
    """Invert polydiv's text rendering: "x^2 - 3/4x + 5" or "0"."""
    if text == "0":
        return []
    tokens = text.split(" ")
    signed = [tokens[0]] + [sign + body for sign, body in zip(tokens[1::2], tokens[2::2])]
    if len(tokens) % 2 == 0 or any(s not in "+-" for s in tokens[1::2]):
        raise ValueError(f"malformed polynomial text {text!r}")
    powers: dict[int, Fraction] = {}
    for term in signed:
        negative = term.startswith("-")
        body = term.lstrip("+-")
        match = _TERM.fullmatch(body)
        if match is None or not body:
            raise ValueError(f"malformed term {term!r}")
        value = Fraction(match["mag"]) if match["mag"] else Fraction(1)
        power = 0 if match["var"] is None else int(match["exp"] or 1)
        if power in powers or value == 0:
            raise ValueError(f"repeated or zero term {term!r}")
        powers[power] = -value if negative else value
    return _trim([powers.get(i, Fraction(0)) for i in range(max(powers) + 1)])


def _read_reply(request: Request, stdout: str) -> tuple[list[Fraction], list[Fraction]]:
    if request.fmt == "json":
        payload = json.loads(stdout)
        if request.command == "verify":
            agreement = payload.get("agreement")
            if not isinstance(agreement, dict) or set(agreement) != set(ROUTES):
                raise ValueError(f"verify reply lists routes {agreement!r}")
            if not all(flag is True for flag in agreement.values()):
                raise ValueError(f"verify reply reports disagreement {agreement!r}")
        q = [Fraction(c) for c in payload["quotient"]]
        r = [Fraction(c) for c in payload["remainder"]]
        return q, r
    lines = stdout.rstrip("\n").split("\n")
    if len(lines) != 2 or not lines[0].startswith("quotient: ") or not lines[1].startswith("remainder: "):
        raise ValueError("text reply is not a quotient line and a remainder line")
    return parse_text_poly(lines[0][len("quotient: "):]), parse_text_poly(lines[1][len("remainder: "):])


def _mul_add(g: tuple[Fraction, ...], q: list[Fraction], r: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(g) + len(q) - 1, len(r), 0)
    for i, a in enumerate(q):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    for i, c in enumerate(r):
        out[i] += c
    return _trim(out)


def check_reply(request: Request, stdout: str) -> str | None:
    """None when the reply is the exact division of f by g, else why not."""
    try:
        q, r = _read_reply(request, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable reply: {exc}"
    if (q and q[-1] == 0) or (r and r[-1] == 0):
        return "coefficient list has trailing zeros"
    if len(r) >= len(request.g):
        return f"remainder degree {len(r) - 1} is not below divisor degree {len(request.g) - 1}"
    if _mul_add(request.g, q, r) != _trim(list(request.f)):
        return "g*q + r differs from f"
    return None
