"""Division through exact determinants of structured matrices.

The linear system tying quotient to dividend has a Hankel coefficient
matrix H whose determinant is known in closed form. Bordering H with the
dividend column and a row of powers of x gives a matrix W whose
determinant is a scalar multiple of the quotient polynomial itself.
Cycling and reversing the rows of W turns it into a lower Hessenberg
matrix with constant superdiagonal, whose leading minors (the mixed
deltas) deliver the quotient one coefficient at a time. A second, pure
family of deltas built from the divisor tail alone collapses to a short
sum over the general recurrent sequence.

Everything is exact. The det_oracle here is the brute-force referee for
every closed determinant formula in the package; it shares no code with
the formulas it checks. Above order 4 it runs maximal_minors, one
fraction-free elimination that yields every maximal minor of an
r-by-(r+1) matrix at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .closedform import divide_with, t_sequence
from .polycore import (
    DegreeTooSmall,
    DivisionResult,
    DivisorViews,
    Polynomial,
    PolyDivError,
    Rational,
    ZeroDivisor,
    _clear_denominators,
    _coerce,
    _convolve,
    _powers,
    _recurrence,
    divisor_views,
    evaluate,
)

# Hard ceiling on constructed matrix orders. Exact determinants blow up
# combinatorially in entry size; past desk scale the right response is a
# loud error, not a silent stall.
DEFAULT_MAX_ORDER = 64


class IndexOutOfRange(PolyDivError):
    """A delta index k falls outside the range the construction defines."""


class MatrixTooLarge(PolyDivError):
    """A requested matrix order exceeds the configured cap."""


def _check_order(order: int) -> None:
    if order < 1:
        raise IndexOutOfRange(f"matrix order must be positive, got {order}")
    if order > DEFAULT_MAX_ORDER:
        raise MatrixTooLarge(f"matrix order {order} exceeds the cap {DEFAULT_MAX_ORDER}")


class ExactMatrix:
    """Immutable square matrix of rationals.

    Rows are addressed 0-based in code; the docstrings of the builders
    speak 1-based where that matches the written formulas.
    """

    __slots__ = ("rows",)

    rows: tuple[tuple[Rational, ...], ...]

    def __init__(self, rows: Iterable[Sequence]):
        # Lists, not generators: resized tuples refill the tuple free lists.
        grid = tuple([tuple([_coerce(v) for v in row]) for row in rows])
        if not grid:
            raise IndexOutOfRange("a matrix needs at least one row")
        if any(len(row) != len(grid) for row in grid):
            raise IndexOutOfRange("matrix must be square")
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Rational:
        return self.rows[i][j]

    def leading_minor(self, k: int) -> ExactMatrix:
        """The top-left k-by-k submatrix."""
        if not 1 <= k <= self.order:
            raise IndexOutOfRange(f"minor order {k} outside 1..{self.order}")
        return ExactMatrix(tuple(row[:k] for row in self.rows[:k]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.order != other.order:
            raise IndexOutOfRange("matrix product needs equal orders")
        cols = tuple(zip(*other.rows))
        return ExactMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def __repr__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(str(v) for v in row) + "]" for row in self.rows
        )
        return f"ExactMatrix({body})"


def _det_cofactor(rows: tuple[tuple[Rational, ...], ...]) -> Rational:
    # Textbook expansion along the first row. Exponential, so reserved
    # for the small orders where it doubles as the hand calculation.
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(size):
        pivot = rows[0][j]
        if pivot == 0:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = pivot * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def det_oracle(matrix: ExactMatrix) -> Rational:
    """Exact determinant by brute force, independent of every closed form.

    Orders up to 4 use first-row cofactor expansion, matching the hand
    calculations the golden values came from. Larger orders take the
    last maximal minor of the matrix bordered by a zero column, whose
    fraction-free elimination stays exact over the integers.
    """
    if matrix.order <= 4:
        return _det_cofactor(matrix.rows)
    return maximal_minors([row + (0,) for row in matrix.rows])[-1]


def maximal_minors(rows: Sequence[Sequence]) -> list[Rational]:
    """The r + 1 maximal minors of an r-by-(r+1) matrix: entry j is the
    determinant of the matrix with column j struck out.

    One fraction-free Gauss-Jordan pass over the rows cleared to
    integers (Bareiss 1968; Nakos, Turner and Williams 1997) keeps every
    entry a minor, so every division is exact. Pivots are searched over
    the columns not yet used, in order, so they ascend and leave one
    free column, or run out when the rank is below r and every minor is
    0. The last pivot is the minor striking the free column; each free
    entry is a Cramer numerator, the minor with the free column in place
    of its row's pivot column.
    """
    size = len(rows)
    if size < 1 or any(len(row) != size + 1 for row in rows):
        raise IndexOutOfRange("maximal minors need an r-by-(r+1) matrix, r >= 1")
    # The product of the row multipliers scales every maximal minor.
    scale = 1
    grid = []
    for row in rows:
        den, ints = _clear_denominators([_coerce(v) for v in row])
        scale *= den
        grid.append(ints)
    unused = list(range(size + 1))
    sign = prev = 1
    for k in range(size):
        # The first unused column with a nonzero entry in row k or below;
        # that entry's row swaps up to row k.
        found = next(((col, r) for col in unused for r in range(k, size) if grid[r][col]), None)
        if found is None:
            return [Fraction(0)] * (size + 1)
        col, r = found
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        unused.remove(col)
        top = grid[k]
        pivot = top[col]
        for i, row in enumerate(grid):
            if i != k:
                factor = row[col]
                for j in unused:
                    row[j] = (row[j] * pivot - factor * top[j]) // prev
        prev = pivot
    (free,) = unused
    # Column j pivots in row j below the free column and row j - 1 above
    # it; moving the free column into its place takes |free - j| - 1
    # adjacent swaps.
    signed = [
        prev if j == free else (-1) ** (abs(free - j) - 1) * grid[j - (j > free)][free]
        for j in range(size + 1)
    ]
    return [Fraction(sign * value, scale) for value in signed]


def anti_identity_sign(t: int) -> Rational:
    """Determinant of the order-t anti-identity: (-1)^(t(t-1)/2).

    Reversing t rows takes floor(t/2) transpositions, whose parity
    matches t(t-1)/2.
    """
    if t < 1:
        raise IndexOutOfRange(f"order must be positive, got {t}")
    return Fraction(-1) ** (t * (t - 1) // 2)


def build_anti_identity(t: int) -> ExactMatrix:
    """Permutation matrix with ones on the anti-diagonal."""
    _check_order(t)
    return ExactMatrix(
        tuple(
            tuple(Fraction(1 if i + j == t - 1 else 0) for j in range(t))
            for i in range(t)
        )
    )


def build_hankel(g: Polynomial, n: int) -> ExactMatrix:
    """Coefficient matrix of the quotient system, order n - m + 1.

    Entry (i, j), 0-based, holds the raw divisor coefficient with index
    2m - n + i + j, reading 0 outside 0..m. Anti-diagonals are constant,
    the main anti-diagonal is all lead coefficients, and everything
    strictly below it is zero. Multiplying by the descending quotient
    vector reproduces the top dividend coefficients a_m .. a_n.
    """
    views = divisor_views(g)
    m = views.degree
    if n < m:
        raise DegreeTooSmall(f"target degree {n} below divisor degree {m}")
    size = n - m + 1
    _check_order(size)
    return ExactMatrix(
        tuple(
            tuple(g.coeff(2 * m - n + i + j) for j in range(size))
            for i in range(size)
        )
    )


def hankel_det_closed(g: Polynomial, n: int) -> Rational:
    """det of build_hankel(g, n) without building it.

    The matrix is anti-triangular with the lead coefficient along the
    anti-diagonal, so with t = n - m + 2 its determinant is

        (-1)^((t-1)(t-2)/2) * lead^(t-1).
    """
    views = divisor_views(g)
    if n < views.degree:
        raise DegreeTooSmall(f"target degree {n} below divisor degree {views.degree}")
    t = n - views.degree + 2
    sign = Fraction(-1) ** ((t - 1) * (t - 2) // 2)
    return sign * views.lead ** (t - 1)


def _require_division_shape(f: Polynomial, g: Polynomial) -> tuple[int, int]:
    if g.is_zero:
        raise ZeroDivisor("cannot divide by the zero polynomial")
    if g.degree < 1:
        raise DegreeTooSmall("divisor must have degree at least 1 here")
    if f.is_zero or f.degree < g.degree:
        raise DegreeTooSmall("dividend degree must reach the divisor degree")
    return f.degree, g.degree


def build_bordered(f: Polynomial, g: Polynomial, x0) -> ExactMatrix:
    """The matrix W at the point x0, order t = n - m + 2.

    Rows 1..t-1 are the Hankel rows extended by the dividend column
    a_m .. a_n; the last row is x0^(n-m), ..., x0, 1, 0.
    """
    n, m = _require_division_shape(f, g)
    t = n - m + 2
    _check_order(t)
    x0 = _coerce(x0)
    hankel = build_hankel(g, n)
    rows = [hankel.rows[i] + (f.coeff(m + i),) for i in range(t - 1)]
    rows.append(tuple(x0 ** (n - m - j) for j in range(t - 1)) + (Fraction(0),))
    return ExactMatrix(rows)


def det_W_at(f: Polynomial, g: Polynomial, x0) -> Rational:
    """Exact determinant of the bordered matrix W evaluated at x0.

    As a function of x0 this is -det(H) times the quotient of f by g.
    quotient_ratio reads that quotient off the cofactors of W's last row,
    taking them all from maximal_minors in place of evaluating W.
    """
    return det_oracle(build_bordered(f, g, x0))


def build_permuted(f: Polynomial, g: Polynomial, x0) -> ExactMatrix:
    """W with its bottom row cycled to the top and last column to the front.

    Both cycles are even permutations of t - 1 transpositions each, so
    the determinant is unchanged: det(T) = det(W).
    """
    bordered = build_bordered(f, g, x0)
    cycled = [row[-1:] + row[:-1] for row in bordered.rows]
    return ExactMatrix([cycled[-1]] + cycled[:-1])


def build_hessenberg(f: Polynomial, g: Polynomial, x0) -> ExactMatrix:
    """Lower Hessenberg form of W: the rows of T in reverse order.

    Row i (0-based, i < t-1) is a_{n-i} followed by the divisor slice
    g_{m-i}, g_{m-i+1}, ...; the constant superdiagonal is the lead
    coefficient. The last row is 0, x0^(n-m), ..., x0, 1. Equal by
    construction to anti_identity @ permuted, which the tests assert.
    """
    n, m = _require_division_shape(f, g)
    t = n - m + 2
    _check_order(t)
    x0 = _coerce(x0)
    rows = [
        (f.coeff(n - i),) + tuple(g.coeff(m - i + j - 1) for j in range(1, t))
        for i in range(t - 1)
    ]
    rows.append((Fraction(0),) + tuple(x0 ** (t - 1 - j) for j in range(1, t)))
    return ExactMatrix(rows)


@dataclass(frozen=True)
class DeltaMixedSpec:
    """Order-k leading minor of the Hessenberg form: dividend column plus
    shifted raw divisor columns."""

    f: Polynomial
    g: Polynomial
    k: int

    def __post_init__(self):
        n, m = _require_division_shape(self.f, self.g)
        if not 1 <= self.k <= n - m + 1:
            raise IndexOutOfRange(f"delta index {self.k} outside 1..{n - m + 1}")


def mixed_delta_matrix(spec: DeltaMixedSpec) -> ExactMatrix:
    """Explicit k-by-k matrix: column 0 holds a_n .. a_{n-k+1}, column
    j >= 1 holds the raw divisor coefficients g_{m-i+j-1}."""
    _check_order(spec.k)
    n = spec.f.degree
    m = spec.g.degree
    return ExactMatrix(
        tuple(
            (spec.f.coeff(n - i),)
            + tuple(spec.g.coeff(m - i + j - 1) for j in range(1, spec.k))
            for i in range(spec.k)
        )
    )


def _mixed_delta_parts(
    f: Polynomial, g: Polynomial, kmax: int
) -> tuple[int, list[int], list[int], list[Rational]]:
    # First-column Laplace expansion, run as a recursion. Striking row i
    # and column 0 from the order-k matrix leaves a block-triangular
    # minor: an upper-left triangle of lead coefficients contributing
    # lead^(i-1), and a lower-right band matrix in the divisor tail
    # whose determinant G_{k-i} satisfies the same expansion one level
    # down. The band is homogeneous of degree s in the coefficients of
    # g, so clearing g to D*g (lead L) keeps it integral: B_s = D^s G_s,
    # and B_s needs only the p <= m tail terms. Then
    #
    #     delta_k = D^(1-k) * sum over j of B_{k-1-j} * (-1)^j a_{n-j} L^j
    #
    # for j = 0 .. k-1. Returns D, L^0 .. L^kmax, B_0 .. B_{kmax-1}
    # and the values (-1)^j a_{n-j} L^j.
    n = f.degree
    den, ints = _clear_denominators(g.coeffs)
    lead = ints.pop()
    m = len(ints)
    powers = _powers(lead, kmax + 1)
    width = min(m, kmax - 1)
    # (-1)^(p+1) * G_{m-p} * L^(p-1) for p = width .. 1.
    back = [
        (ints[m - p] if p % 2 == 1 else -ints[m - p]) * powers[p - 1]
        for p in range(width, 0, -1)
    ]
    band = _recurrence(back, kmax)
    values = [
        f.coeff(n - j) * (powers[j] if j % 2 == 0 else -powers[j]) for j in range(kmax)
    ]
    return den, powers, band, values


def _mixed_deltas(f: Polynomial, g: Polynomial, kmax: int) -> list[Rational]:
    den, _, band, values = _mixed_delta_parts(f, g, kmax)
    return _convolve(band, values, _powers(den, kmax))


def delta_mixed(spec: DeltaMixedSpec) -> Rational:
    """Determinant of the mixed delta matrix by first-column expansion.

    Matrix-free: the block structure of each complementary minor reduces
    the whole expansion to two short convolutions. The tests hold this
    equal to det_oracle(mixed_delta_matrix(spec)).
    """
    return _mixed_deltas(spec.f, spec.g, spec.k)[-1]


def quotient_from_dets(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient assembled from the mixed deltas.

    With t = n - m + 2, coefficient j of the quotient is

        d_j = (-1)^(t-j) * lead^(j+1-t) * delta_{t-j-1},

    for j = 0 .. n-m. The delta indices run t-1 down to 1, so one shared
    recursion fills them all.
    """
    n, m = _require_division_shape(f, g)
    kmax = n - m + 1
    # lead = L/D turns (-1)^(k+1) * lead^(-k) * delta_k into
    # D * (B convolved with the values) / ((-1)^(k+1) * L^k).
    den, powers, band, values = _mixed_delta_parts(f, g, kmax)
    scales = [p if k % 2 == 1 else -p for k, p in enumerate(powers[1:], start=1)]
    d = _convolve([den * b for b in band], values, scales)
    return Polynomial(d[::-1])


def quotient_ratio(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient recovered from the ratio -det(W at x) / det(H).

    det W is linear in W's last row x^(n-m), ..., x, 1, 0, so expanding
    along that row reads the quotient off its cofactors (Cramer's rule on
    the Hankel system). With t = n - m + 2 and M_j the t - 1 rows above
    it with column j struck out,

        d_(n-m-j) = (-1)^(t-j) * det(M_j) / det(H)

    for j = 0 .. t-2. Striking the dividend column (j = t-1) leaves H
    itself. One maximal_minors elimination of those t - 1 rows gives all
    t minors at once, det(H) among them, and keeps this route free of any
    closed formula.
    """
    n, m = _require_division_shape(f, g)
    t = n - m + 2
    # H before W, so a refusal names the smaller matrix past the cap.
    _check_order(t - 1)
    minors = maximal_minors(build_bordered(f, g, 0).rows[:-1])
    det_h = minors.pop()
    d = [(-1) ** (t - j) * minor / det_h for j, minor in enumerate(minors)]
    return Polynomial(d[::-1])


def hessenberg_det_expansion(f: Polynomial, g: Polynomial, x0) -> Rational:
    """Last-row expansion of the Hessenberg form's determinant at x0:

        sum over i = 2 .. t of (-1)^(t-i) * x0^(t-i) * lead^(t-i) * delta_{i-1}.

    Equals anti_identity_sign(t) times det_W_at(f, g, x0), since the row
    reversal taking the cycled matrix to Hessenberg form contributes
    exactly that sign.
    """
    n, m = _require_division_shape(f, g)
    t = n - m + 2
    # Reversed, the deltas are the coefficients of a polynomial in -x0 * lead.
    deltas = _mixed_deltas(f, g, t - 1)
    return evaluate(Polynomial(deltas[::-1]), -_coerce(x0) * g.lead)


@dataclass(frozen=True)
class DeltaPureSpec:
    """Order-k determinant built from the divisor tail alone.

    The matrix is lower Hessenberg-Toeplitz: row i (1-based) holds the
    negated tail slice ending at c_{m-1} on the diagonal, with the lead
    coefficient on the superdiagonal and zeros above. Out-of-range tail
    indices read 0, so k may exceed the divisor degree.
    """

    views: DivisorViews
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise IndexOutOfRange(f"delta index must be positive, got {self.k}")


def pure_delta_matrix(spec: DeltaPureSpec, flipped: bool = False) -> ExactMatrix:
    """Explicit matrix behind the pure deltas.

    Base variant: entry (i, j), 0-based, is -c(m-1-i+j) on and below the
    diagonal and lead on the superdiagonal. The flipped variant negates
    both: +c entries below, -lead above. Either way the determinant
    changes by (-1)^k between the two.
    """
    _check_order(spec.k)
    views = spec.views
    m = views.degree
    sgn = -1 if flipped else 1
    rows = []
    for i in range(spec.k):
        row = []
        for j in range(spec.k):
            if j <= i:
                row.append(-sgn * views.c(m - 1 - i + j))
            elif j == i + 1:
                row.append(sgn * views.lead)
            else:
                row.append(Fraction(0))
        rows.append(tuple(row))
    return ExactMatrix(rows)


def delta_pure_direct(spec: DeltaPureSpec, flipped: bool = False) -> Rational:
    """Pure delta by building the matrix and asking the oracle."""
    return det_oracle(pure_delta_matrix(spec, flipped=flipped))


def delta_pure_closed(spec: DeltaPureSpec, flipped: bool = False) -> Rational:
    """Pure delta as a short sum over the general recurrent sequence:

        delta_k = (-1)^k * lead^k * sum over i = 1 .. k of t_i * c(m-k-1+i)

    for the base variant; the flipped variant drops the (-1)^k."""
    views = spec.views
    m = views.degree
    t_terms = t_sequence(views, spec.k)
    acc = Fraction(0)
    for i in range(1, spec.k + 1):
        ci = views.c(m - spec.k - 1 + i)
        if ci != 0:
            acc += t_terms.term(i) * ci
    base = views.lead ** spec.k * acc
    if flipped:
        return base
    return base if spec.k % 2 == 0 else -base


def divide_det_formula(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Full division with the quotient taken from the mixed deltas."""
    return divide_with(f, g, quotient_from_dets)


def divide_det_ratio(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Full division with the quotient taken from the determinant ratio."""
    return divide_with(f, g, quotient_ratio)
