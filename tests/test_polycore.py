"""Core arithmetic, canonical forms, and the long-division oracle."""
from fractions import Fraction

import pytest
from hypothesis import given, settings

from polydiv import polycore
from polydiv.polycore import (
    DivisionResult,
    DivisorViews,
    OutputTooLarge,
    Polynomial,
    ZeroDivisor,
    _printable,
    call_with_output_limit,
    divisor_views,
    evaluate,
    long_divide,
    monic_reduction,
)
from strategies import division_pairs, divisors, polys, rationals, wide_divisors, wide_polys, wide_rationals

nonzero_polys = polys.filter(lambda p: not p.is_zero)


def schoolbook_divide(f, g):
    """Euclidean division with one Fraction operation per divisor
    coefficient per step: the reference long_divide is held to."""
    m = g.degree
    if f.is_zero or f.degree < m:
        return DivisionResult(quotient=Polynomial(), remainder=f)
    lead = g.lead
    rem = list(f.coeffs)
    q = [Fraction(0)] * (f.degree - m + 1)
    for k in range(f.degree - m, -1, -1):
        coef = rem[k + m] / lead
        q[k] = coef
        if coef == 0:
            continue
        for i, gi in enumerate(g.coeffs):
            rem[k + i] -= coef * gi
    return DivisionResult(quotient=Polynomial(q), remainder=Polynomial(rem[:m]))


def test_normalize_strips_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])


def test_normalize_all_zero_is_canonical_zero():
    p = Polynomial([0, 0])
    assert p.is_zero
    assert p.coeffs == ()
    assert p.degree is None
    assert not p and Polynomial([0, 1])


def test_normalize_identity_on_canonical_input():
    assert Polynomial([Fraction(1, 2)]).coeffs == (Fraction(1, 2),)


@given(polys)
def test_normalize_idempotent(p):
    assert Polynomial(p.coeffs) == p


def test_degree_and_lead():
    p = Polynomial([2, 3, 0, 5])
    assert p.degree == 3
    assert p.lead == 5
    with pytest.raises(ZeroDivisor):
        Polynomial([]).lead


def test_coeff_out_of_range_reads_zero():
    p = Polynomial([1, 2])
    assert p.coeff(5) == 0
    assert p.coeff(-1) == 0


def test_evaluate_examples():
    assert evaluate(Polynomial([1, 0, 1]), 2) == 5
    assert evaluate(Polynomial([7, 3, -2]), 0) == 7
    assert evaluate(Polynomial([Fraction(-1, 2), 3]), Fraction(1, 3)) == Fraction(1, 2)


def test_ring_op_examples():
    assert Polynomial([-1, 1]) * Polynomial([1, 1]) == Polynomial([-1, 0, 1])
    p = Polynomial([2, 0, 3])
    assert p + Polynomial() == p
    assert (p * 0).is_zero
    assert (Polynomial([1, 2]) * Polynomial()).is_zero
    assert (Polynomial() * Polynomial()).is_zero


def test_sum_and_difference_refuse_scalars():
    # Only * takes a scalar. + and - leave any other operand to its own
    # reflected method, and an int has none for a Polynomial.
    with pytest.raises(TypeError):
        Polynomial([1]) + 1
    with pytest.raises(TypeError):
        Polynomial([1]) - 1

    class Reflecting:
        def __radd__(self, other):
            return "radd"

        def __rsub__(self, other):
            return "rsub"

    assert Polynomial([1]) + Reflecting() == "radd"
    assert Polynomial([1]) - Reflecting() == "rsub"


@given(polys, polys, rationals)
def test_evaluate_is_multiplicative(p, q, x0):
    assert evaluate(p * q, x0) == evaluate(p, x0) * evaluate(q, x0)


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


def test_long_divide_cubic_example():
    result = long_divide(Polynomial([0, 0, 0, 1]), Polynomial([-1, 1]))
    assert result.quotient == Polynomial([1, 1, 1])
    assert result.remainder == Polynomial([1])


@given(nonzero_polys)
def test_long_divide_self_division(p):
    result = long_divide(p, p)
    assert result.quotient == Polynomial([1])
    assert result.remainder.is_zero


def test_long_divide_golden_quartic():
    result = long_divide(Polynomial([0, 0, 0, 0, 1]), Polynomial([-1, -1, 1]))
    assert result.quotient == Polynomial([2, 1, 1])
    assert result.remainder == Polynomial([2, 3])


def test_long_divide_rejects_zero_divisor():
    with pytest.raises(ZeroDivisor):
        long_divide(Polynomial([1]), Polynomial())


@given(polys, divisors)
def test_long_divide_matches_schoolbook(f, g):
    # Constant divisors included: the window is then the top entry alone.
    expected = schoolbook_divide(f, g)
    assert long_divide(f, g) == expected
    assert monic_reduction(f, g) == expected


@given(division_pairs(max_n=29))
def test_long_divide_matches_schoolbook_on_long_quotients(pair):
    # n - m up to 28: long runs of lead powers in the running scale, and
    # with wide rationals a new dividend denominator at almost every step.
    f, g = pair
    expected = schoolbook_divide(f, g)
    assert long_divide(f, g) == expected
    assert monic_reduction(f, g) == expected


@given(polys, divisors)
def test_euclidean_identity(f, g):
    result = long_divide(f, g)
    assert g * result.quotient + result.remainder == f
    assert result.remainder.is_zero or result.remainder.degree < g.degree
    assert result.reconstructs(f, g)


@given(polys, divisors)
def test_division_result_unique(f, g):
    # Perturbing the quotient while preserving the identity pushes the
    # remainder degree to deg g, so no second valid pair exists.
    result = long_divide(f, g)
    other = DivisionResult(
        quotient=result.quotient + Polynomial([1]),
        remainder=result.remainder - g,
    )
    assert g * other.quotient + other.remainder == f
    assert not other.reconstructs(f, g)


@given(wide_polys, wide_divisors, wide_rationals.filter(lambda c: c != 0))
@settings(max_examples=30)
def test_reconstructs_rejects_any_single_change(f, g, change):
    # Every quotient coefficient, the lowest included (where the running
    # denominator of the check is largest), and every remainder slot
    # below deg g, each moved alone by one nonzero rational.
    result = long_divide(f, g)
    q = list(result.quotient.coeffs) or [Fraction(0)]
    r = list(result.remainder.coeffs) + [Fraction(0)] * (max(g.degree, 1) - len(result.remainder.coeffs))
    for i in range(len(q)):
        moved = Polynomial(q[:i] + [q[i] + change] + q[i + 1:])
        assert not DivisionResult(moved, result.remainder).reconstructs(f, g)
    for i in range(len(r)):
        moved = Polynomial(r[:i] + [r[i] + change] + r[i + 1:])
        assert not DivisionResult(result.quotient, moved).reconstructs(f, g)


def test_reconstructs_refuses_zero_divisor():
    # 0 * 0 + f == f holds, but no remainder degree is below a zero divisor's.
    f = Polynomial([1, 2])
    assert not DivisionResult(Polynomial(), f).reconstructs(f, Polynomial())


def test_monic_reduction_examples():
    result = monic_reduction(Polynomial([0, 0, 2]), Polynomial([-2, 2]))
    assert result.quotient == Polynomial([1, 1])
    assert result.remainder == Polynomial([2])
    result = monic_reduction(Polynomial([0, 0, 1]), Polynomial([0, 0, 3]))
    assert result.quotient == Polynomial([Fraction(1, 3)])
    assert result.remainder.is_zero
    with pytest.raises(ZeroDivisor):
        monic_reduction(Polynomial([1, 2]), Polynomial())


@given(polys, divisors)
def test_monic_reduction_matches_long_divide(f, g):
    assert monic_reduction(f, g) == long_divide(f, g)


@given(polys, divisors)
def test_monic_scaling_law(f, g):
    # Dividing by g/lead scales the quotient by lead and keeps the
    # remainder; that is exactly how monic_reduction undoes it.
    monic = g * (Fraction(1) / g.lead)
    inner = long_divide(f, monic)
    outer = long_divide(f, g)
    assert outer.quotient == inner.quotient * (Fraction(1) / g.lead)
    assert outer.remainder == inner.remainder


@given(polys, divisors)
def test_low_dividend_coefficients_never_reach_quotient(f, g):
    m = g.degree
    zeroed = Polynomial([Fraction(0)] * m + list(f.coeffs[m:]))
    assert long_divide(zeroed, g).quotient == long_divide(f, g).quotient


def test_divisor_views_golden():
    views = divisor_views(Polynomial([-1, -1, 1]))
    assert views.lead == 1
    assert views.negated_tail == (Fraction(1), Fraction(1))
    assert views.degree == 2


def test_divisor_views_scaled_linear():
    views = divisor_views(Polynomial([-2, 2]))
    assert views.lead == 2
    assert views.negated_tail == (Fraction(2),)
    assert views.degree == 1


def test_divisor_views_constant():
    views = divisor_views(Polynomial([5]))
    assert views.lead == 5
    assert views.negated_tail == ()
    assert views.degree == 0


def test_divisor_views_rejects_zero():
    with pytest.raises(ZeroDivisor):
        divisor_views(Polynomial())


def test_divisor_views_built_by_hand_are_canonical():
    views = DivisorViews(lead=2, negated_tail=(1, "1/2"))
    assert views == divisor_views(Polynomial([-1, Fraction(-1, 2), 2]))
    assert all(type(v) is Fraction for v in (views.lead,) + views.negated_tail)


@pytest.mark.parametrize("lead, tail", [(0.5, (1.5, 1)), (1, (1, 0.5))])
def test_divisor_views_reject_floats(lead, tail):
    with pytest.raises(TypeError):
        DivisorViews(lead=lead, negated_tail=tail)
    with pytest.raises(TypeError):
        DivisorViews(lead=1, negated_tail=(1,))._replace(lead=lead, negated_tail=tail)


def test_divisor_views_reject_zero_lead():
    with pytest.raises(ZeroDivisor):
        DivisorViews(lead=0, negated_tail=(1, 1))
    with pytest.raises(ZeroDivisor):
        DivisorViews(lead=1, negated_tail=(1, 1))._replace(lead=0)


@given(divisors)
def test_divisor_views_consistency(g):
    views = divisor_views(g)
    assert views.degree == g.degree
    assert views.lead == g.lead
    for i in range(views.degree):
        assert views.negated_tail[i] == -g.coeff(i)


def test_polynomial_rejects_floats():
    with pytest.raises(TypeError):
        Polynomial([0.1])
    with pytest.raises(TypeError):
        Polynomial([1, 2]) * 0.5
    with pytest.raises(TypeError):
        evaluate(Polynomial([1, 2]), 0.5)


def test_polynomial_immutable():
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(9),)
    with pytest.raises(AttributeError):
        p.degree_cache = 1


@pytest.mark.parametrize("limit", [640, 700, 4300])
def test_printable_refuses_from_ten_to_the_limit(digit_limit, limit):
    digit_limit(limit)
    bound = 10**limit
    fitting = (Fraction(bound - 1), Fraction(1 - bound), Fraction(1, bound - 1), Fraction(bound - 1, bound - 2))
    for fits in fitting:
        assert call_with_output_limit(_printable, fits) is fits
    # 10^limit as a numerator, a negated numerator and a denominator.
    for past in (Fraction(bound), Fraction(-bound), Fraction(1, bound), Fraction(-1, bound), Fraction(bound + 1, 3)):
        with pytest.raises(OutputTooLarge) as caught:
            call_with_output_limit(_printable, past)
        assert str(caught.value) == (
            f"a result value has more than {limit} decimal digits, the interpreter's int-to-str limit"
        )


def test_printable_at_limit_zero_and_outside_a_limit_refuses_nothing(digit_limit):
    wide = Fraction(10**5000 + 1, 10**4999 + 3)
    digit_limit(0)
    assert call_with_output_limit(_printable, wide) is wide
    # Outside a call, _printable does not read the interpreter's limit.
    digit_limit(640)
    assert _printable(wide) is wide


def test_output_limit_ends_with_its_call(digit_limit):
    past = Fraction(10**640)

    def nested():
        # The inner limit holds only during its own call.
        digit_limit(0)
        assert call_with_output_limit(_printable, past) is past
        digit_limit(640)
        return _printable(past)

    digit_limit(640)
    with pytest.raises(OutputTooLarge):
        call_with_output_limit(nested)
    with pytest.raises(OutputTooLarge):
        call_with_output_limit(_printable, past)
    assert polycore._LIMIT.get() == 0
    assert _printable(past) is past
