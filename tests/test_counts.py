"""Operation counts: how many big-int products each route and the check
form, counted exactly.

Every product in polycore's _convolve and closedform's _general_terms goes
through the ``mul`` each module imports from ``operator`` and looks up at
call time, so a counting ``mul`` sees them all. The counts depend only on
the shape, n = deg f and m = deg g, so a change of formula that keeps the
replies but not the cost, such as an O(t^2) path in place of an O(t*m)
one, fails here. With t = n - m + 1 quotient coefficients:

    closed        t(t+1)/2 + t*m   the paper's sum, then its remainder
    det-formula   t*m              the mixed deltas, then the remainder
    reconstructs  (m+1)*t          g times the quotient
"""
from fractions import Fraction
from operator import mul

import pytest

from polydiv import closedform, polycore
from polydiv.closedform import divide_closed
from polydiv.detengine import divide_det_formula
from polydiv.polycore import Polynomial


@pytest.fixture
def products(monkeypatch):
    """A one-entry list: the number of products formed since it was last reset."""
    count = [0]

    def counting(a, b):
        count[0] += 1
        return mul(a, b)

    for module in (polycore, closedform):
        monkeypatch.setattr(module, "mul", counting)
    return count


def _dense(degree):
    # 8-bit coefficients, none of them zero.
    return Polynomial([Fraction((-1) ** i * (37 * i % 255 + 1)) for i in range(degree + 1)])


@pytest.mark.parametrize("n, m", [(128, 8), (384, 32)])
def test_product_counts_follow_each_formula(products, n, m):
    f, g = _dense(n), _dense(m)
    t = n - m + 1
    expected = {divide_closed: t * (t + 1) // 2 + t * m, divide_det_formula: t * m}
    for route, count in expected.items():
        products[0] = 0
        result = route(f, g)
        assert products[0] == count
    products[0] = 0
    assert result.reconstructs(f, g)
    assert products[0] == (m + 1) * t
