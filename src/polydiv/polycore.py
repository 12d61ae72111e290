"""Exact scalars, dense polynomials, and the long-division oracle.

Coefficients live in the field of rationals with arbitrary precision, so
every arithmetic identity in this package is decided by exact equality.
A polynomial is a dense ascending coefficient sequence: index i holds the
coefficient of x^i. The canonical zero polynomial is the empty sequence,
and its degree is None rather than a sentinel integer.

Every route forms its output coefficients top-first and passes each
through _printable as it is formed. During call_with_output_limit(fn,
...), that raises OutputTooLarge at the first coefficient whose numerator
or denominator has more decimal digits than the interpreter's int-to-str
limit, so the rest of the route never runs. Outside such a call, or at a
limit of 0, nothing is refused. The CLI's divide and sequence hold their
routes to the limit this way; every other caller, verify and delta among
them, gets whole results. This module is the one reader of that limit.
"""
from __future__ import annotations

import functools
import math
import sys
from contextvars import ContextVar
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar, Union

Scalar = Union[Fraction, int, str]
_T = TypeVar("_T")


class PolyDivError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroDivisor(PolyDivError):
    """Division by the zero polynomial."""


class DegreeTooSmall(PolyDivError):
    """A degree precondition does not hold (e.g. deg f < deg g)."""


def _digit_limit() -> int:
    """The interpreter's int-to-str limit now; 0, no limit, if it has none."""
    return getattr(sys, "get_int_max_str_digits", int)()


class OutputTooLarge(PolyDivError):
    """A result value has more decimal digits than the int-to-str limit allows."""

    def __init__(self):
        super().__init__(
            f"a result value has more than {_digit_limit()} decimal digits, "
            "the interpreter's int-to-str limit"
        )


# The bound 10^limit of the output limit in force; 0 refuses nothing.
_LIMIT: ContextVar[int] = ContextVar("output_limit", default=0)
# 10^4300 takes tens of microseconds to form, so each bound is formed once.
_bound = functools.cache(lambda digits: 10**digits if digits else 0)


def call_with_output_limit(fn: Callable[..., _T], *args) -> _T:
    """fn(*args), with every route output formed during the call refused
    past the int-to-str limit in its numerator or denominator; a limit of
    0 refuses nothing. The previous limit is back in force on return."""
    token = _LIMIT.set(_bound(_digit_limit()))
    try:
        return fn(*args)
    finally:
        _LIMIT.reset(token)


def _printable(value: Fraction) -> Fraction:
    """value itself, or OutputTooLarge if the output limit in force
    refuses it: its numerator or denominator is at least 10^limit."""
    bound = _LIMIT.get()
    if bound and (abs(value.numerator) >= bound or value.denominator >= bound):
        raise OutputTooLarge()
    return value


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # Fraction(0.1) is the binary approximation, not 1/10.
        raise TypeError(f"float {value!r} is not an exact scalar; pass an int, str or Fraction")
    return Fraction(value)


class Polynomial:
    """Immutable dense polynomial over the rationals.

    >>> Polynomial([1, 2, 0, 0])
    Polynomial([1, 2])
    >>> Polynomial([]).is_zero
    True
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        values = [_coerce(c) for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        object.__setattr__(self, "coeffs", tuple(values))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; undefined (raises) for the zero polynomial."""
        if not self.coeffs:
            raise ZeroDivisor("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i, with every out-of-range index reading as 0."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        short, long_ = sorted((self.coeffs, other.coeffs), key=len)
        summed = [a + b for a, b in zip(long_, short)]
        return Polynomial(summed + list(long_[len(short):]))

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, Polynomial):
            # Descending from the leading coefficients, where the
            # denominators of a quotient nest; the shorter factor is
            # cleared once, here and not by _clear_denominators, which the
            # formula routes use, and its denominator divided back out.
            short, long_ = sorted((self.coeffs, other.coeffs), key=len)
            den = math.lcm(*[c.denominator for c in short])
            weights = [c.numerator * (den // c.denominator) for c in reversed(short)]
            count = len(short) + len(long_) - 1
            return Polynomial(list(_convolve(weights, long_[::-1], [den] * count))[::-1])
        return Polynomial([c * _coerce(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"Polynomial([{inner}])"

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if isinstance(other, Polynomial) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __reduce__(self) -> tuple:
        return Polynomial, (self.coeffs,)

    def _frozen(self, *args: object) -> None:
        raise AttributeError("Polynomial is immutable")

    __setattr__ = __delattr__ = _frozen


class DivisorViews(NamedTuple("DivisorViews", [("lead", Fraction), ("negated_tail", tuple)])):
    """The view of one nonzero divisor g of degree m that every
    recurrence and closed formula in this package reads: the leading
    coefficient ``lead`` and ``negated_tail``, which holds -g_i for i < m.

    Writing the tail negated removes the usual sign ambiguity between a
    divisor with plus signs and one with the tail subtracted from the
    leading term.
    """

    __slots__ = ()

    def __new__(cls, lead: Scalar, negated_tail: Iterable[Scalar]):
        lead, tail = _coerce(lead), tuple([_coerce(c) for c in negated_tail])
        if lead == 0:
            raise ZeroDivisor("a divisor's leading coefficient cannot be 0")
        return super().__new__(cls, lead, tail)

    # _replace builds through _make; send it through the checks above.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def degree(self) -> int:
        return len(self.negated_tail)


class DivisionResult(NamedTuple):
    """Quotient/remainder pair; unique for a given dividend and divisor."""

    quotient: Polynomial
    remainder: Polynomial

    def reconstructs(self, dividend: Polynomial, divisor: Polynomial) -> bool:
        """Check divisor * quotient + remainder == dividend exactly, along
        with the degree bound on the remainder."""
        if divisor * self.quotient + self.remainder != dividend:
            return False
        if self.remainder.is_zero:
            return True
        if divisor.is_zero:
            return False
        return self.remainder.degree < divisor.degree


def _clear_denominators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator D of the values and the integers D*v."""
    # A list: unpacking a generator builds a resized tuple, and freed
    # resized tuples pile up on the tuple free lists.
    den = math.lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _powers(base: int, count: int) -> list[int]:
    """base^0 .. base^(count-1)."""
    out = []
    power = 1
    for _ in range(count):
        out.append(power)
        power *= base
    return out


def _convolve(
    weights: Sequence[int], values: Sequence[Fraction], scales: Sequence[int]
) -> Iterator[Fraction]:
    """Exact out[k] = (sum over j of weights[k-j] * values[j]) / scales[k]
    for k = 0 .. len(scales)-1, with j running over the window
    max(0, k - len(weights) + 1) .. min(k, len(values) - 1), yielded in
    order of k, so a caller that stops early skips the rest.

    Fraction-free: weights and scales are integers, and the values are
    cleared over a running common denominator. When values[k] brings a
    denominator that does not divide it, the numerators still inside the
    window are rescaled once. Only integers meet in the inner sums, and
    each output is normalised as one Fraction.
    """
    back = weights[::-1]
    width = len(back)
    nums: list[int] = []
    den = 1
    for k, scale in enumerate(scales):
        lo = max(0, k - width + 1)
        if k < len(values):
            num, d = values[k].numerator, values[k].denominator
            if den % d:
                grow = d // math.gcd(den, d)
                den *= grow
                nums[lo:] = [x * grow for x in nums[lo:]]
            nums.append(num * (den // d))
        hi = min(k + 1, len(nums))
        acc = sum(map(mul, back[width - 1 - k + lo : width - 1 - k + hi], nums[lo:hi]))
        yield Fraction(acc, scale * den)


def evaluate(p: Polynomial, x0: Scalar) -> Fraction:
    """Exact value of p at x0 by Horner's scheme."""
    x0 = _coerce(x0)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


def long_divide(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Euclidean division of f by a nonzero g, fraction-free.

    Returns the unique (q, r) with f = g*q + r and r either zero or of
    degree strictly below deg g. This is the ground-truth oracle that the
    closed-form and determinant routes are checked against.

    Pseudo-division (Knuth, TAOCP vol. 2, 4.6.1): g is cleared once to
    D*g, with integer coefficients and lead L. The m+1 working remainder
    entries are integer numerators over one running scale, each dividend
    coefficient is scaled once as it enters that window, and each output
    coefficient is normalised as one Fraction and held to the output
    limit as soon as it is formed.
    """
    if g.is_zero:
        raise ZeroDivisor("cannot divide by the zero polynomial")
    m = g.degree
    # Cleared here, not by _clear_denominators, which the formula routes use.
    den = math.lcm(*[c.denominator for c in g.coeffs])
    lead, *tail = [c.numerator * (den // c.denominator) for c in reversed(g.coeffs)]
    # The working remainder, highest power first, as numerators over scale.
    window: list[int] = []
    scale = 1
    q = []
    for a in reversed(f.coeffs):
        d = a.denominator
        if scale % d:
            grow = d // math.gcd(scale, d)
            scale *= grow
            window = [w * grow for w in window]
        window.append(a.numerator * (scale // d))
        if len(window) > m:
            top = window[0]
            q.append(_printable(Fraction(top * den, scale * lead)))
            if top:
                window = [lead * w - top * c for w, c in zip(window[1:], tail)]
                scale *= lead
            else:
                del window[0]
    return DivisionResult(
        quotient=Polynomial(q[::-1]),
        remainder=Polynomial([_printable(Fraction(w, scale)) for w in reversed(window)]),
    )


def monic_reduction(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Divide by first normalizing the divisor to a monic polynomial.

    Dividing f by g/lead(g) leaves the remainder unchanged and scales the
    quotient by lead(g), so dividing the intermediate quotient back down
    reproduces long_divide(f, g) exactly.
    """
    lead = g.lead
    inner = long_divide(f, g * (Fraction(1) / lead))
    return DivisionResult(
        quotient=inner.quotient * (Fraction(1) / lead),
        remainder=inner.remainder,
    )


def divisor_views(g: Polynomial) -> DivisorViews:
    """The leading coefficient and negated tail of a nonzero divisor."""
    return DivisorViews(lead=g.lead, negated_tail=tuple([-c for c in g.coeffs[:-1]]))
