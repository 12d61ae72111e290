"""Division by recurrent sequences instead of iterated subtraction.

A single linear recurrence driven by the divisor's tail produces a
sequence whose terms, combined with the high coefficients of the
dividend, give every quotient coefficient directly. The remainder then
falls out of one convolution. Nothing here calls the long-division
oracle; agreement between the two routes is checked in the tests.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .polycore import (
    DegreeTooSmall,
    DivisionResult,
    DivisorViews,
    Polynomial,
    ZeroDivisor,
    _clear_denominators,
    _convolve,
    _powers,
    _printable,
    divisor_views,
)


def s_sequence(views: DivisorViews, count: int) -> tuple[Fraction, ...]:
    """First ``count`` terms s_1 .. s_count of the monic-divisor recurrence.

    s_1 = 1 and each later term is a tail-weighted sum of its
    predecessors:

        s_r = sum over i of (-g_{m-i} / lead) * s_{r-i},  i = 1 .. r-1,

    with -g_j / lead the negated tail of the monic divisor, read as 0
    outside 0..m-1. For x^2 - x - 1 this is the Fibonacci sequence.
    Each term is held to the output limit as it is formed.
    """
    # s_r = lead * t_r, and lead = L/D turns t_r = D * T_r / L^r into
    # s_r = T_r / L^(r-1).
    _, lead, terms = _general_terms(views, count)
    powers = _powers(lead, count)
    return tuple([_printable(Fraction(term, power)) for term, power in zip(terms, powers)])


def _general_terms(
    views: DivisorViews, count: int, drive: Sequence[int] = (1,)
) -> tuple[int, int, list[int]]:
    # The one integer recurrence in the package. Clearing the divisor to
    # D*g, an integer polynomial with lead L and negated tail c', gives
    # V_r = u_r * L^(r-1) + sum of c'(m - i) * L^(i-1) * V_{r-i} over
    # i = 1 .. min(r-1, m), for r = 1 .. count, with the integer input
    # u_1, u_2, ... read as 0 past its end. The default impulse u = (1,)
    # gives T, with t_r = D * T_r / L^r. Returns D, L, V.
    if count < 1:
        raise DegreeTooSmall("a sequence needs at least one term")
    den, ints = _clear_denominators(views.negated_tail + (views.lead,))
    lead = ints.pop()
    m = len(ints)
    # c'(m - i) * L^(i-1) for i = m .. 1: the last weight meets the newest term.
    back = [c * p for c, p in zip(ints, _powers(lead, m)[::-1])]
    terms = [u * p for u, p in zip(drive, _powers(lead, len(drive)))]
    terms += [0] * (count - len(terms))
    for s in range(1, count):
        w = min(s, m)
        terms[s] += sum(map(mul, back[m - w:], terms[s - w:s]))
    return den, lead, terms


def t_sequence(views: DivisorViews, count: int) -> tuple[Fraction, ...]:
    """First ``count`` terms t_1 .. t_count of the general-divisor recurrence.

    t_1 = 1/lead and

        t_r = (1/lead) * sum over i of c(m - i) * t_{r-i},  i = 1 .. r-1,

    with c(j) the negated divisor tail. Term for term this is the monic
    sequence divided by the leading coefficient: lead * t_r = s_r. Each
    term is held to the output limit as it is formed.
    """
    den, lead, terms = _general_terms(views, count)
    powers = _powers(lead, count + 1)[1:]
    return tuple([_printable(Fraction(den * term, power)) for term, power in zip(terms, powers)])


def _division_degrees(f: Polynomial, g: Polynomial) -> tuple[int, int]:
    # The shape every formula and determinant builder needs: g nonzero, deg f >= deg g.
    if g.is_zero:
        raise ZeroDivisor("cannot divide by the zero polynomial")
    if f.is_zero or f.degree < g.degree:
        raise DegreeTooSmall("dividend degree must reach the divisor degree")
    return f.degree, g.degree


def quotient_closed(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient coefficients straight from the general recurrence.

    With n = deg f, m = deg g and t the general sequence of g, the
    quotient d_{n-m} x^{n-m} + ... + d_0 satisfies

        d_{n-m-k} = sum over j of t_{k+1-j} * a_{n-j},  j = 0 .. k,

    for k = 0 .. n-m. Only the top n-m+1 dividend coefficients enter, so
    perturbing any a_i with i < m cannot change the quotient. Each d is
    held to the output limit as it is formed, top-first.
    """
    n, m = _division_degrees(f, g)
    count = n - m + 1
    # With t_r = D * T_r / L^r the sum is D/L^(k+1) times the
    # convolution of T with a_{n-j} * L^j.
    den, lead, terms = _general_terms(divisor_views(g), count)
    powers = _powers(lead, count + 1)
    values = [a * p for a, p in zip(f.coeffs[::-1], powers[:count])]
    d = [_printable(c) for c in _convolve([den * term for term in terms], values, powers[1:])]
    return Polynomial(d[::-1])


def remainder_closed(f: Polynomial, g: Polynomial, q: Polynomial) -> Polynomial:
    """Remainder as one convolution of the negated tail with the quotient.

    r_k = a_k + sum of c_i * d_j over i + j = k with 0 <= i <= m-1,
    for k = 0 .. m-1. The quotient being exact makes everything from
    degree m upward cancel, so only the low m coefficients are formed.
    Passing a q that is not the true quotient of f by g produces garbage;
    divide_with guards that pairing. Each r_k is held to the output limit.
    """
    views = divisor_views(g)
    den, tail = _clear_denominators(views.negated_tail)
    low = _convolve(tail, q.coeffs, [den] * views.degree)
    return Polynomial([_printable(f.coeff(k) + s) for k, s in enumerate(low)])


def divide_with(
    f: Polynomial, g: Polynomial, quotient: Callable[[Polynomial, Polynomial], Polynomial]
) -> DivisionResult:
    """Full division of f by a nonzero g with quotient(f, g) as the
    quotient formula and remainder_closed as the remainder formula.

    Lower dividends are their own remainder. A constant divisor only scales,
    as every formula would, but faster and clear of det-ratio's order cap.
    """
    if g.is_zero:
        raise ZeroDivisor("cannot divide by the zero polynomial")
    m = g.degree
    if f.is_zero or f.degree < m:
        return DivisionResult(quotient=Polynomial(), remainder=f)
    if m == 0:
        return DivisionResult(quotient=f * (Fraction(1) / g.lead), remainder=Polynomial())
    q = quotient(f, g)
    return DivisionResult(quotient=q, remainder=remainder_closed(f, g, q))


def divide_closed(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Full division via the recurrence route, for any f and nonzero g."""
    return divide_with(f, g, quotient_closed)
