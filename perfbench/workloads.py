"""Seeded request corpora for the four benchmark workloads.

Every request is a polydiv CLI argv plus the exact dividend and divisor
it encodes, kept as ascending lists of Fractions so the reply can be
checked without the library's own arithmetic.

Shapes follow a fixed stratified design, so that every seed and every
run length sees the same mix and the seed-to-seed spread of a metric is
the program's, not the sampler's. Each workload crosses a few
categorical factors (method, lead kind, width, ...) into cells and
visits the cells round-robin, so any prefix of the corpus is balanced
across them. Inside a cell the continuous axes (degrees) follow a
Halton sequence over the visit count. The seed draws the coefficients,
fresh for every request, so no request repeats.
"""
from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

ROUTES = ("longdiv", "closed", "det-formula", "det-ratio")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    f: tuple[Fraction, ...]
    g: tuple[Fraction, ...]
    command: str
    fmt: str


def _radical_inverse(index: int, base: int) -> float:
    out, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        out += digit * scale
        scale /= base
    return out


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in lo..hi from a point u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _int_coeff(rng: random.Random, bits: int) -> int:
    value = rng.getrandbits(bits)
    return -value if rng.random() < 0.5 else value


def _lead(rng: random.Random, kind: str, bits: int) -> int:
    if kind == "one":
        return 1
    if kind == "small":
        value = rng.randint(2, 15)
    elif kind == "wide":  # exactly `bits` bits
        value = rng.getrandbits(bits) | (1 << (bits - 1))
    else:  # "any": a nonzero coefficient like the others
        value = rng.getrandbits(bits) or 1
    return -value if rng.random() < 0.5 else value


def _coeff(rng: random.Random, bits: int, rational: bool) -> Fraction:
    num = _int_coeff(rng, bits)
    return Fraction(num, rng.randint(2, (1 << bits) - 1)) if rational else Fraction(num)


def render(coeffs: list[Fraction]) -> str:
    """Human term syntax, descending powers, e.g. "3x^4 - 1/2x + 7"."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        var = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
        body = var if mag == 1 and var else f"{mag}{var}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts)


@dataclass(frozen=True)
class Shape:
    """What one cell visit asks for; the coefficients are drawn later."""

    command: str
    method: str | None
    fmt: str
    n: int
    m: int
    bits: int
    lead: str
    rational: bool


@dataclass(frozen=True)
class Workload:
    name: str
    factors: tuple[tuple[str, tuple], ...]
    shape: Callable[[dict, float, float], Shape]
    trace_requests: int


# n - m <= 30 keeps det-ratio's matrix order n - m + 2 at most 32, under
# its cap of 64.
def _verify_small(cell: dict, u: float, v: float) -> Shape:
    m = _pick(v, 1, 8)
    return Shape("verify", None, "json", m + _pick(u, 0, 30), m, cell["bits"], cell["lead"], cell["rational"])


# det-ratio cannot run at these orders, so only three methods take part.
def _divide_highdeg(cell: dict, u: float, v: float) -> Shape:
    return Shape("divide", cell["method"], "json", _pick(u, 128, 384), _pick(v, 2, 16), 8, cell["lead"], False)


# Quotient coefficients grow to about (n - m) * bits(lead) bits, so the
# degrees stay low. Many still pass CPython's 4300-digit limit on
# int-to-str conversion, which crashes the CLI: a known defect that this
# workload keeps in view rather than steering around.
def _divide_widebits(cell: dict, u: float, v: float) -> Shape:
    m = _pick(v, 1, 4)
    return Shape(
        "divide", cell["method"], "json", m + _pick(u, 4, 24), m, cell["bits"], cell["lead"], cell["rational"]
    )


# About a millisecond a request, so per-call overhead in cli shows.
def _divide_tiny(cell: dict, u: float, v: float) -> Shape:
    m = _pick(v, 1, 4)
    return Shape("divide", cell["method"], cell["fmt"], m + _pick(u, 0, 6), m, 8, "any", False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-small",
            (
                ("bits", (4, 8, 16, 32)),
                ("lead", ("one", "small", "wide")),
                ("rational", (True, False, False, False)),
            ),
            _verify_small,
            48,
        ),
        Workload(
            "divide-highdeg",
            (("method", ROUTES[:3]), ("lead", ("one", "small"))),
            _divide_highdeg,
            24,
        ),
        Workload(
            "divide-widebits",
            (
                ("method", ROUTES[:3]),
                ("bits", (256, 1024, 4096)),
                ("lead", ("one", "small", "wide")),
                ("rational", (True, False)),
            ),
            _divide_widebits,
            54,
        ),
        Workload(
            "divide-tiny",
            (("method", ROUTES), ("fmt", ("text", "json"))),
            _divide_tiny,
            1200,
        ),
    )
}


class Corpus:
    """The request stream of one workload and seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        # The first factor varies fastest from one request to the next.
        names = [name for name, _ in workload.factors]
        levels = [values for _, values in reversed(workload.factors)]
        self.cells = [dict(zip(names, reversed(combo))) for combo in product(*levels)]
        self._seen: set[int] = set()  # argv digests; small, as RSS is measured

    def shape(self, i: int) -> Shape:
        cell = i % len(self.cells)
        visit = i // len(self.cells)
        # Fixed irrational offsets decorrelate the cells' Halton points.
        u = (_radical_inverse(visit, 2) + cell * 0.6180339887) % 1.0
        v = (_radical_inverse(visit, 3) + cell * 0.4142135624) % 1.0
        return self.workload.shape(self.cells[cell], u, v)

    def request(self, i: int) -> Request:
        """Request i; the first call for each i must come in order of i,
        since a request that repeats an earlier argv is drawn again."""
        shape = self.shape(i)
        salt = 0
        while True:
            rng = random.Random(f"{self.workload.name}/{self.seed}/{i}/{salt}")
            request = _build(shape, rng)
            data = "\0".join(request.argv).encode()
            digest = zlib.crc32(data) << 32 | zlib.adler32(data)
            if digest not in self._seen:
                self._seen.add(digest)
                return request
            salt += 1


def _build(shape: Shape, rng: random.Random) -> Request:
    f = [_coeff(rng, shape.bits, shape.rational) for _ in range(shape.n + 1)]
    while f[-1] == 0:
        f[-1] = _coeff(rng, shape.bits, shape.rational)
    g = [_coeff(rng, shape.bits, False) for _ in range(shape.m)]
    g.append(Fraction(_lead(rng, shape.lead, shape.bits)))
    # "--opt=value" keeps a leading minus sign from reading as an option.
    argv = [shape.command, f"--dividend={render(f)}", f"--divisor={render(g)}"]
    if shape.method is not None:
        argv.append(f"--method={shape.method}")
    argv.append(f"--format={shape.fmt}")
    return Request(tuple(argv), tuple(f), tuple(g), shape.command, shape.fmt)
