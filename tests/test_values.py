"""The value types' contract: equal values compare and hash equal,
fields cannot be assigned or deleted, copies and pickles come back
equal, and reprs stay as they were."""
import copy
import pickle
from fractions import Fraction

import pytest

from polydiv.cli import DivisionReport
from polydiv.detengine import DeltaMixedSpec, DeltaPureSpec
from polydiv.polycore import DivisorViews, Polynomial, divisor_views, long_divide

F = Polynomial([0, 0, 0, 0, 1])
G = Polynomial([-1, -1, 1])

# Each builds a fresh value, so two calls give equal values in distinct objects.
VALUES = {
    "Polynomial": lambda: Polynomial([1, "1/2"]),
    "DivisorViews": lambda: DivisorViews(lead=2, negated_tail=(1, "1/2")),
    "DivisionResult": lambda: long_divide(F, G),
    "DivisionReport": lambda: DivisionReport("x^4", "x^2-x-1", "longdiv", long_divide(F, G)),
    "DeltaMixedSpec": lambda: DeltaMixedSpec(f=Polynomial(F.coeffs), g=Polynomial(G.coeffs), k=2),
    "DeltaPureSpec": lambda: DeltaPureSpec(views=divisor_views(G), k=3),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=list(VALUES))
def test_value_types_compare_by_value_and_are_frozen(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for field in getattr(type(a), "_fields", ("coeffs",)):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b


@pytest.mark.parametrize("make", VALUES.values(), ids=list(VALUES))
def test_value_types_copy_and_pickle(make):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        field = getattr(type(twin), "_fields", ("coeffs",))[0]
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(value, field))


def test_polynomial_equals_only_polynomials():
    assert Polynomial([1]) != 1
    assert Polynomial([1]) != (Fraction(1),)
    assert Polynomial([1]) != Polynomial([2])


def test_reprs_are_pinned():
    assert repr(long_divide(F, G)) == (
        "DivisionResult(quotient=Polynomial([2, 1, 1]), remainder=Polynomial([2, 3]))"
    )
    assert repr(divisor_views(Polynomial([-1, Fraction(-1, 2), 2]))) == (
        "DivisorViews(lead=Fraction(2, 1), negated_tail=(Fraction(1, 1), Fraction(1, 2)))"
    )


def test_division_result_unpacks():
    q, r = long_divide(F, G)
    assert (q, r) == (Polynomial([2, 1, 1]), Polynomial([2, 3]))
