"""The theorems the paper generalises, as an oracle for every route.

arXiv 1506.06637 extends the remainder and quotient theorems that hold
when the divisor splits into linear factors, g = c * (x - a_0) ...
(x - a_(m-1)). Dividing f by the factors one at a time, by synthetic
division, leaves the quotient of the last step over c, and remainders
rho_k that make up the remainder in Newton form,

    r = sum over k of rho_k * (x - a_0) ... (x - a_(k-1)).

The oracle builds g and the Newton basis with its own loop, so it shares
no helper with any route, with long_divide, or with the check.
"""
import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polydiv import cli
from polydiv.cli import parse_polynomial
from polydiv.polycore import Polynomial

# A small pool, so that drawn divisors often have repeated roots.
ROOTS = [Fraction(v) for v in ("0", "1", "-2", "1/3", "-3/2")]


def synthetic_division(coeffs, root):
    """The quotient, lowest coefficient first, and the remainder of the
    polynomial with these coefficients by x - root, by Horner's scheme."""
    partial = [Fraction(0)]
    for c in reversed(coeffs):
        partial.append(partial[-1] * root + c)
    return partial[-2:0:-1], partial[-1]


def times_linear(coeffs, root):
    """The coefficients, lowest first, of the polynomial times x - root."""
    return [a - root * b for a, b in zip([0, *coeffs], [*coeffs, 0])]


def split_division(f, lead, roots):
    """g = lead * prod of (x - root), and the quotient and remainder of f by g."""
    rest, basis = list(f.coeffs), [Fraction(1)]
    remainder = [Fraction(0)] * len(roots)
    for root in roots:
        rest, rho = synthetic_division(rest, root)
        for i, b in enumerate(basis):
            remainder[i] += rho * b
        basis = times_linear(basis, root)
    g = Polynomial([lead * b for b in basis])
    return g, Polynomial([c / lead for c in rest]), Polynomial(remainder)


@st.composite
def split_pairs(draw):
    """(f, lead, roots): deg f 0 .. 60 and m 1 .. 8 roots from the pool,
    with coefficients and lead rationals of one drawn width, 4 .. 64 bits."""
    bits = draw(st.integers(min_value=4, max_value=64))
    coeffs = st.builds(
        Fraction, st.integers(min_value=-(2**bits), max_value=2**bits), st.integers(min_value=1, max_value=2**bits)
    )
    size = draw(st.integers(min_value=1, max_value=61))
    f = Polynomial(draw(st.lists(coeffs, min_size=size, max_size=size)))
    lead = draw(coeffs.filter(bool))
    return f, lead, draw(st.lists(st.sampled_from(ROOTS), min_size=1, max_size=8))


def _list(values):
    return "[" + ", ".join(map(str, values)) + "]"


@settings(max_examples=100, deadline=None)
@given(split_pairs())
def test_routes_and_verify_agree_with_division_by_linear_factors(pair):
    f, lead, roots = pair
    g, q, r = split_division(f, lead, roots)
    for method in cli.METHODS.values():
        assert method(f, g) == (q, r)
    argv = ["verify", "--dividend", _list(f.coeffs), "--divisor", _list(g.coeffs), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    payload = json.loads(out.getvalue())
    assert all(payload["agreement"].values())
    assert parse_polynomial(_list(payload["quotient"])) == q
    assert parse_polynomial(_list(payload["remainder"])) == r
