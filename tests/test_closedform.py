"""Recurrent sequences and the closed-form quotient and remainder."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydiv.closedform import (
    divide_closed,
    quotient_closed,
    remainder_closed,
    s_sequence,
    t_sequence,
)
from polydiv.polycore import (
    DegreeTooSmall,
    Polynomial,
    ZeroDivisor,
    divisor_views,
    long_divide,
)
from strategies import division_pairs, divisors, polys


def paper_t_terms(g, count):
    # The paper's general recurrence term by term in Fraction, with the
    # sum over i running the full 1 .. r-1.
    m = g.degree
    c = [-g.coeff(j) for j in range(m)]
    terms = [1 / g.lead]
    for r in range(2, count + 1):
        acc = Fraction(0)
        for i in range(1, r):
            if 0 <= m - i < m:
                acc += c[m - i] * terms[r - i - 1]
        terms.append(acc / g.lead)
    return tuple(terms)


def paper_quotient_closed(f, g):
    n, m = f.degree, g.degree
    t = paper_t_terms(g, n - m + 1)
    d = [Fraction(0)] * (n - m + 1)
    for k in range(n - m + 1):
        d[n - m - k] = sum((t[k - j] * f.coeff(n - j) for j in range(k + 1)), Fraction(0))
    return Polynomial(d)


def fib_divisor_views():
    return divisor_views(Polynomial([-1, -1, 1]))


def test_s_sequence_fibonacci():
    assert s_sequence(fib_divisor_views(), 6) == tuple(Fraction(v) for v in (1, 1, 2, 3, 5, 8))


def test_s_sequence_geometric():
    views = divisor_views(Polynomial([-3, 1]))
    assert s_sequence(views, 4) == tuple(Fraction(v) for v in (1, 3, 9, 27))


def test_s_sequence_zero_tail():
    views = divisor_views(Polynomial([0, 0, 0, 1]))
    assert s_sequence(views, 4) == tuple(Fraction(v) for v in (1, 0, 0, 0))


def test_s_sequence_reads_the_monic_tail():
    # x^2 - x/3 - 1/2 and 2x - 6: rational tail, then a lead other than 1.
    views = divisor_views(Polynomial([Fraction(-1, 2), Fraction(-1, 3), 1]))
    assert s_sequence(views, 3) == (1, Fraction(1, 3), Fraction(11, 18))
    assert s_sequence(divisor_views(Polynomial([-6, 2])), 3) == (1, 3, 9)


def test_t_sequence_collapses_when_monic():
    views = fib_divisor_views()
    assert t_sequence(views, 5) == s_sequence(views, 5)


def test_t_sequence_constant_case():
    views = divisor_views(Polynomial([-2, 2]))
    assert t_sequence(views, 3) == (Fraction(1, 2),) * 3


def test_t_sequence_hand_unrolled():
    views = divisor_views(Polynomial([-4, -6, 2]))
    assert t_sequence(views, 3) == (
        Fraction(1, 2),
        Fraction(3, 2),
        Fraction(11, 2),
    )


def test_sequence_needs_positive_count():
    for sequence in (s_sequence, t_sequence):
        with pytest.raises(DegreeTooSmall):
            sequence(fib_divisor_views(), 0)


@given(divisors, st.integers(min_value=1, max_value=12))
def test_lead_times_t_equals_monic_s(g, count):
    views = divisor_views(g)
    monic_views = divisor_views(g * (Fraction(1) / g.lead))
    t_terms = t_sequence(views, count)
    s_terms = s_sequence(monic_views, count)
    assert all(views.lead * t == s for t, s in zip(t_terms, s_terms))


@given(divisors, st.integers(min_value=1, max_value=30))
@settings(max_examples=60)
def test_t_sequence_matches_paper_sum(g, count):
    assert t_sequence(divisor_views(g), count) == paper_t_terms(g, count)


@given(division_pairs(max_n=30))
@settings(max_examples=60, deadline=None)
def test_quotient_closed_matches_paper_sum(pair):
    f, g = pair
    q = quotient_closed(f, g)
    assert q == paper_quotient_closed(f, g)
    assert q == long_divide(f, g).quotient


def test_quotient_closed_golden_quartic():
    q = quotient_closed(Polynomial([0, 0, 0, 0, 1]), Polynomial([-1, -1, 1]))
    assert q == Polynomial([2, 1, 1])


def test_quotient_closed_scaled_linear():
    q = quotient_closed(Polynomial([0, 0, 2]), Polynomial([-2, 2]))
    assert q == Polynomial([1, 1])


@given(divisors)
def test_quotient_closed_self_division(g):
    assert quotient_closed(g, g) == Polynomial([1])


def test_quotient_closed_requires_degree():
    # The message pins the shared guard: past it, the recurrence would
    # refuse a count below 1 with a DegreeTooSmall of its own.
    reach = "dividend degree must reach the divisor degree"
    with pytest.raises(DegreeTooSmall, match=reach):
        quotient_closed(Polynomial([1, 1]), Polynomial([0, 0, 1]))
    with pytest.raises(DegreeTooSmall, match=reach):
        quotient_closed(Polynomial(), Polynomial([0, 1]))
    with pytest.raises(ZeroDivisor, match="cannot divide by the zero polynomial"):
        quotient_closed(Polynomial([1, 1]), Polynomial())


def test_remainder_closed_golden_quartic():
    f = Polynomial([0, 0, 0, 0, 1])
    g = Polynomial([-1, -1, 1])
    assert remainder_closed(f, g, Polynomial([2, 1, 1])) == Polynomial([2, 3])


def test_remainder_closed_scaled_linear():
    f = Polynomial([0, 0, 2])
    g = Polynomial([-2, 2])
    assert remainder_closed(f, g, Polynomial([1, 1])) == Polynomial([2])


@given(divisors)
def test_remainder_closed_exact_divisibility(g):
    f = g * Polynomial([1, 1])
    assert remainder_closed(f, g, quotient_closed(f, g)).is_zero


def test_divide_closed_cubic():
    result = divide_closed(Polynomial([0, 0, 0, 1]), Polynomial([-1, 1]))
    assert result.quotient == Polynomial([1, 1, 1])
    assert result.remainder == Polynomial([1])


def test_divide_closed_short_circuits():
    f = Polynomial([0, 1])
    result = divide_closed(f, Polynomial([0, 0, 0, 1]))
    assert result.quotient.is_zero
    assert result.remainder == f


def test_divide_closed_constant_divisor():
    f = Polynomial([2, 0, 6])
    result = divide_closed(f, Polynomial([4]))
    assert result.quotient == Polynomial([Fraction(1, 2), 0, Fraction(3, 2)])
    assert result.remainder.is_zero


def test_divide_closed_rejects_zero_divisor():
    with pytest.raises(ZeroDivisor):
        divide_closed(Polynomial([1]), Polynomial())


@given(polys, divisors)
def test_divide_closed_matches_oracle(f, g):
    assert divide_closed(f, g) == long_divide(f, g)


@given(polys, divisors)
def test_quotient_reads_only_high_coefficients(f, g):
    m = g.degree
    if f.is_zero or f.degree < m or m == 0:
        return
    zeroed = Polynomial([Fraction(0)] * m + list(f.coeffs[m:]))
    assert quotient_closed(zeroed, g) == quotient_closed(f, g)


@given(polys, divisors)
def test_leading_quotient_coefficient(f, g):
    if f.is_zero or f.degree < g.degree:
        return
    q = divide_closed(f, g).quotient
    assert q.coeff(f.degree - g.degree) == f.lead / g.lead
