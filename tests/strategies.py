"""Hypothesis strategies shared by the test modules.

Coefficients come from two families. The small rationals are the hand
sized ones the examples were written for. The wide rationals have
numerators and denominators up to 2^256, leads included, and their
dividends reach degree 29, so n - m runs well past the divisor degree:
there the fraction-free kernels clear long denominators, carry long
powers of the lead coefficient and cut their recurrence loops at the
divisor degree.
"""
from fractions import Fraction

from hypothesis import strategies as st

from polydiv.polycore import Polynomial

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
wide_rationals = st.builds(
    Fraction, st.integers(min_value=-(2**256), max_value=2**256), st.integers(min_value=1, max_value=2**256)
)


def _polys(coeffs, max_size):
    return st.lists(coeffs, max_size=max_size).map(Polynomial)


def _divisors(coeffs):
    return st.tuples(
        st.lists(coeffs, max_size=6),
        coeffs.filter(lambda c: c != 0),
    ).map(lambda t: Polynomial(list(t[0]) + [t[1]]))


wide_polys = _polys(wide_rationals, 30)
wide_divisors = _divisors(wide_rationals)
small_divisors = _divisors(rationals)
polys = st.one_of(_polys(rationals, 8), wide_polys)
divisors = st.one_of(small_divisors, wide_divisors)


@st.composite
def division_pairs(draw, max_n=10, families=(rationals, wide_rationals)):
    """(f, g) with 0 <= deg g <= deg f <= max(deg g, max_n), all
    coefficients from one of the families."""
    coeffs = draw(st.sampled_from(families))
    g = draw(_divisors(coeffs))
    m = g.degree
    n = draw(st.integers(min_value=m, max_value=max(m, max_n)))
    tail = draw(st.lists(coeffs, min_size=n, max_size=n))
    lead = draw(coeffs.filter(lambda c: c != 0))
    return Polynomial(tail + [lead]), g
