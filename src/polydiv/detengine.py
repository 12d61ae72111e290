"""Division through exact determinants of structured matrices.

The linear system tying quotient to dividend has a Hankel coefficient
matrix H whose determinant is known in closed form. Bordering H with the
dividend column and a row of powers of x gives a matrix W whose
determinant is a scalar multiple of the quotient polynomial itself.
Cycling and reversing the rows of W turns it into a lower Hessenberg
matrix with constant superdiagonal, whose leading minors (the mixed
deltas), signed and scaled by lead powers, are the quotient coefficients.
Both delta families come from the general recurrence in closedform,
_general_terms: each pure delta is one of its terms, and the mixed
deltas are the same recurrence driven by the dividend column. The shape
check, _division_degrees, comes from there too.

Every builder returns its matrix as a tuple of rows, each a tuple of
Fraction. H, the anti-identity and both delta matrices are windows of
one coefficient sequence (_toeplitz), which checks the order cap for
all of them; the Hessenberg form is W with its rows and columns
reordered, and no entry is converted twice.

Everything is exact. The det_oracle here is the brute-force referee for
every closed determinant formula in the package; it shares no code with
the formulas it checks. There is one elimination, _integer_minors: a
fraction-free pass over integer rows that yields every maximal minor of
an r-by-(r+1) matrix at once, and brings an entry up to date only when
it is read, straight from the pivot at which it was last written. It
has two callers. det_oracle is its checked boundary for Fraction rows: it
checks the shape, refuses floats and clears each row to integers.
det-ratio builds its rows as integer windows itself, clearing the
divisor and the dividend column once.
det-ratio and pure-direct put the lead coefficients on the diagonal,
where the pivot rule takes them with no row swap.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .closedform import _division_degrees, _general_terms, divide_with
# t_sequence is unused here; perfbench/tracing.py patches detengine.t_sequence.
from .closedform import t_sequence
from .polycore import (
    DegreeTooSmall,
    DivisionResult,
    DivisorViews,
    Polynomial,
    PolyDivError,
    _clear_denominators,
    _coerce,
    _powers,
    _printable,
    divisor_views,
    evaluate,
)

# Hard ceiling on constructed matrix orders. Exact determinants blow up
# combinatorially in entry size; past desk scale the right response is a
# loud error, not a silent stall.
DEFAULT_MAX_ORDER = 64

# A square matrix as its rows, 0-based; docstrings count from 1 where formulas do.
_Rows = tuple[tuple[Fraction, ...], ...]


class IndexOutOfRange(PolyDivError):
    """A delta index k falls outside the range the construction defines."""


class MatrixTooLarge(PolyDivError):
    """A requested matrix order exceeds the fixed cap."""


def _check_order(order: int) -> None:
    if order < 1:
        raise IndexOutOfRange(f"matrix order must be positive, got {order}")
    if order > DEFAULT_MAX_ORDER:
        raise MatrixTooLarge(f"matrix order {order} exceeds the cap {DEFAULT_MAX_ORDER}")


def det_oracle(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix given as rows, by brute
    force, independent of every closed form.

    One elimination at every order: each row is cleared to integers by
    its own least common denominator and bordered by a zero column, and
    the last maximal minor of _integer_minors, divided by the product of
    those denominators, is the determinant. An empty, ragged or
    non-square matrix raises IndexOutOfRange and a float entry TypeError.
    """
    size = len(rows)
    if size < 1 or any(len(row) != size for row in rows):
        raise IndexOutOfRange("det_oracle needs a square matrix of order >= 1")
    scale = 1
    grid = []
    for row in rows:
        den, ints = _clear_denominators([_coerce(v) for v in row])
        scale *= den
        grid.append(ints + [0])
    return Fraction(_integer_minors(grid)[-1], scale)


def _integer_minors(grid: list[list[int]]) -> list[int]:
    """The r + 1 maximal minors of an r-by-(r+1) integer matrix, given as
    a list of row lists, which it overwrites. It checks nothing: its two
    callers, det_oracle and quotient_ratio, hand it integer rows shaped
    r-by-(r+1) with r >= 1.

    One fraction-free Gauss-Jordan pass (Bareiss 1968; Nakos, Turner and
    Williams 1997) keeps every entry a minor, so every division is
    exact. Pivots are searched over the columns not yet used, in order,
    so they ascend and leave one free column, or run out when the rank
    is below r and every minor is 0. The last pivot is the minor
    striking the free column; each free entry is a Cramer numerator, the
    minor with the free column in place of its row's pivot column.

    Scaling is lazy, entry by entry, where the eager pass rescales every
    entry at every step. Each entry has a level, the step at whose pivot
    it was last written (-1 if never, where the pivot reads 1), and its
    eager value is the stored one times the newest pivot over its
    level's pivot. So a step that would only rescale an entry leaves it
    as it is, and an entry is caught up only when it is read. At each
    step the pivot row's nonzero entries are caught up and count as
    written at that step, since the eager pass leaves that row as it is.
    Every other row with a nonzero factor in the pivot column is updated
    only where the pivot row is nonzero: entry and factor are combined
    at the later of their two levels, the earlier one caught up to it,
    and divided by that level's pivot. Both are minors there, so this is
    the eager update, and exact; the later level, not the newest, keeps
    the divisor 1 or an early pivot where it can. The free column is
    caught up at the end. On det-ratio's and pure-direct's banded rows
    an update writes one entry: the dividend column, or the moved one.
    """
    size = len(grid)
    unused = list(range(size + 1))
    # The step at whose pivot each entry was last written, -1 if never;
    # pivots[-1] is the 1 that stands before the first step.
    level = [[-1] * (size + 1) for _ in range(size)]
    pivots = [0] * size + [1]
    sign = 1
    for k in range(size):
        # The first unused column with a nonzero entry in row k or below;
        # that entry's row swaps up to row k. Lazy scaling keeps zeros zero.
        for col in unused:
            r = k
            while r < size and not grid[r][col]:
                r += 1
            if r < size:
                break
        else:
            return [0] * (size + 1)
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            level[k], level[r] = level[r], level[k]
            sign = -sign
        unused.remove(col)
        top, top_level, prev = grid[k], level[k], pivots[k - 1]
        lag = top_level[col]
        pivot = pivots[k] = top[col] if lag == k - 1 else top[col] * prev // pivots[lag]
        # The pivot row's nonzero unused entries, caught up to prev.
        cols = []
        for j in unused:
            if top[j]:
                if top_level[j] != k - 1:
                    top[j] = top[j] * prev // pivots[top_level[j]]
                top_level[j] = k
                cols.append(j)
        for i, row in enumerate(grid):
            factor = row[col]
            if i == k or not factor:
                continue
            row_level = level[i]
            b = row_level[col]
            for j in cols:
                # A zero entry is combined at the factor's level.
                x, a = row[j], row_level[j]
                f, c = factor, b
                if x and a > b:
                    f, c = factor * pivots[a] // pivots[b], a
                elif x and a < b:
                    x = x * pivots[b] // pivots[a]
                row[j] = (x * pivot - f * top[j]) // pivots[c]
                row_level[j] = k
    (free,) = unused
    last = pivots[size - 1]
    ends = [row[free] * last // pivots[lev[free]] for row, lev in zip(grid, level)]
    # Column j pivots in row j below the free column and row j - 1 above
    # it; moving the free column into its place takes |free - j| - 1
    # adjacent swaps.
    return [
        sign * (last if j == free else (-1) ** (abs(free - j) - 1) * ends[j - (j > free)])
        for j in range(size + 1)
    ]


def anti_identity_sign(t: int) -> Fraction:
    """Determinant of the order-t anti-identity: (-1)^(t(t-1)/2).

    Reversing t rows takes floor(t/2) transpositions, whose parity
    matches t(t-1)/2.
    """
    if t < 1:
        raise IndexOutOfRange(f"order must be positive, got {t}")
    return Fraction(-1) ** (t * (t - 1) // 2)


def _toeplitz(coeffs: Sequence, shift: int, size: int, width: int) -> _Rows:
    """Rows 0 .. size-1 of the matrix whose entry (i, j) is
    coeffs[shift - i + j], reading zero outside the nonempty sequence.
    Row i is the slice of one padded tuple that starts at index shift - i.
    The pad, coeffs[0] * 0, is a zero of the entries' type: Fraction
    sequences give Fraction rows, and quotient_ratio's int sequence gives
    int rows, which keeps Fraction arithmetic out of its elimination.
    Every structured matrix but W is such a window, so the order cap is
    checked here, on size; W checks its own order after H's window."""
    _check_order(size)
    zero = coeffs[0] * 0
    low = shift - size + 1
    # Lists, not generators: resized tuples refill the tuple free lists.
    padded = tuple([
        coeffs[p] if 0 <= p < len(coeffs) else zero
        for p in range(low, low + size + width - 1)
    ])
    return tuple([padded[size - 1 - i : size - 1 - i + width] for i in range(size)])


def build_anti_identity(t: int) -> _Rows:
    """Permutation matrix with ones on the anti-diagonal: the identity reversed."""
    return _toeplitz((Fraction(1),), 0, t, t)[::-1]


def build_hankel(g: Polynomial, n: int) -> _Rows:
    """Coefficient matrix of the quotient system, order n - m + 1.

    Entry (i, j), 0-based, holds the raw divisor coefficient with index
    2m - n + i + j, reading 0 outside 0..m. Anti-diagonals are constant,
    the main anti-diagonal is all lead coefficients, and everything
    strictly below it is zero. Multiplying by the descending quotient
    vector reproduces the top dividend coefficients a_m .. a_n. These are
    the rows of the Toeplitz matrix g_(m-i+j) in reverse order.
    """
    g.lead  # the zero polynomial raises ZeroDivisor here, before its degree is compared
    m = g.degree
    if n < m:
        raise DegreeTooSmall(f"target degree {n} below divisor degree {m}")
    size = n - m + 1
    return _toeplitz(g.coeffs, m, size, size)[::-1]


def hankel_det_closed(g: Polynomial, n: int) -> Fraction:
    """det of build_hankel(g, n) without building it.

    The matrix is anti-triangular with the lead coefficient along the
    anti-diagonal, so with t = n - m + 2 its determinant is

        anti_identity_sign(t - 1) * lead^(t-1).
    """
    lead, m = g.lead, g.degree
    if n < m:
        raise DegreeTooSmall(f"target degree {n} below divisor degree {m}")
    t = n - m + 2
    return anti_identity_sign(t - 1) * lead ** (t - 1)


def build_bordered(f: Polynomial, g: Polynomial, x0) -> _Rows:
    """The matrix W at the point x0, order t = n - m + 2.

    Rows 1..t-1 are the Hankel rows extended by the dividend column
    a_m .. a_n; the last row is x0^(n-m), ..., x0, 1, 0.
    """
    n, m = _division_degrees(f, g)
    t = n - m + 2
    # H first, so a refusal names the smaller matrix past the cap.
    hankel = build_hankel(g, n)
    _check_order(t)
    x0 = _coerce(x0)
    last = tuple([x0 ** (n - m - j) for j in range(t - 1)]) + (Fraction(0),)
    return tuple([row + (f.coeff(m + i),) for i, row in enumerate(hankel)] + [last])


def det_W_at(f: Polynomial, g: Polynomial, x0) -> Fraction:
    """Exact determinant of the bordered matrix W evaluated at x0.

    As a function of x0 this is -det(H) times the quotient of f by g.
    quotient_ratio reads that quotient off the cofactors of W's last row,
    taking them all from one elimination in place of evaluating W.
    """
    return det_oracle(build_bordered(f, g, x0))


def build_permuted(f: Polynomial, g: Polynomial, x0) -> _Rows:
    """W with its bottom row cycled to the top and last column to the front.

    Both cycles are even permutations of t - 1 transpositions each, so
    the determinant is unchanged: det(T) = det(W).
    """
    cycled = [row[-1:] + row[:-1] for row in build_bordered(f, g, x0)]
    return tuple([cycled[-1]] + cycled[:-1])


def build_hessenberg(f: Polynomial, g: Polynomial, x0) -> _Rows:
    """Lower Hessenberg form of W: the rows of T in reverse order.

    Row i (0-based, i < t-1) is a_{n-i} followed by the divisor slice
    g_{m-i}, g_{m-i+1}, ...; the constant superdiagonal is the lead
    coefficient. The last row is 0, x0^(n-m), ..., x0, 1. The rows of
    build_permuted reversed, so the caps and refusals are W's; the tests
    still hold it equal to the anti-identity times the permuted matrix.
    """
    return build_permuted(f, g, x0)[::-1]


class DeltaMixedSpec(NamedTuple("DeltaMixedSpec", [("f", Polynomial), ("g", Polynomial), ("k", int)])):
    """Order-k leading minor of the Hessenberg form: dividend column plus
    shifted raw divisor columns."""

    __slots__ = ()

    def __new__(cls, f: Polynomial, g: Polynomial, k: int):
        n, m = _division_degrees(f, g)
        if not 1 <= k <= n - m + 1:
            raise IndexOutOfRange(f"delta index {k} outside 1..{n - m + 1}")
        return super().__new__(cls, f, g, k)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


def mixed_delta_matrix(spec: DeltaMixedSpec) -> _Rows:
    """Explicit k-by-k matrix: column 0 holds a_n .. a_{n-k+1}, column
    j >= 1 holds the raw divisor coefficients g_{m-i+j-1}, a Toeplitz band."""
    band = _toeplitz(spec.g.coeffs, spec.g.degree, spec.k, spec.k - 1)
    return tuple([(a,) + row for a, row in zip(spec.f.coeffs[::-1], band)])


def _mixed_deltas(f: Polynomial, g: Polynomial, kmax: int) -> Iterator[Fraction]:
    # delta_1 .. delta_kmax, each formed only when it is taken. The
    # order-k matrix is the pure-delta matrix with the dividend
    # column in place of its first column, so expanding along the last
    # row gives the pure deltas' recurrence with that column as input.
    # Driven by u_r = F * a_{n-r+1} and with g cleared to D*g, it gives
    # delta_k = (-1)^(k-1) * V_k / (D^(k-1) * F); (-D)^(k-1) carries
    # both D^(k-1) and the sign.
    den_f, column = _clear_denominators(f.coeffs[::-1][:kmax])
    den, _, values = _general_terms(divisor_views(g), kmax, column)
    return (Fraction(v, p * den_f) for v, p in zip(values, _powers(-den, kmax)))


def delta_mixed(spec: DeltaMixedSpec) -> Fraction:
    """Determinant of the mixed delta matrix by last-row expansion.

    Matrix-free: the general recurrence, driven by the dividend column,
    yields every leading minor up to order k in O(k*m) steps. The tests
    hold this equal to det_oracle(mixed_delta_matrix(spec)).
    """
    return list(_mixed_deltas(spec.f, spec.g, spec.k))[-1]


def quotient_from_dets(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient read off the mixed deltas by the paper's formula.

    With t = n - m + 2, coefficient j of the quotient is

        d_j = (-1)^(t-j) * lead^(j+1-t) * delta_{t-j-1},

    for j = 0 .. n-m. The delta indices run t-1 down to 1, so one call
    of the mixed-delta kernel, _mixed_deltas, fills them all, top
    coefficient first; each is held to the output limit as it is formed.
    """
    n, m = _division_degrees(f, g)
    count = n - m + 1
    # With k = t-j-1 the factor is -(-1/lead)^k, for k = 1 .. count.
    scales = _powers(-1 / g.lead, count + 1)[1:]
    d = [_printable(-s * delta) for s, delta in zip(scales, _mixed_deltas(f, g, count))]
    return Polynomial(d[::-1])


def quotient_ratio(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient recovered from the ratio -det(W at x) / det(H).

    det W is linear in W's last row x^(n-m), ..., x, 1, 0, so expanding
    along that row reads the quotient off its cofactors (Cramer's rule on
    the Hankel system). With t = n - m + 2 and M_j the t - 1 rows above
    it with column j struck out,

        d_(n-m-j) = (-1)^(t-j) * det(M_j) / det(H)

    for j = 0 .. t-2. Striking the dividend column (j = t-1) leaves H
    itself. One elimination of those t - 1 rows, _integer_minors, gives
    all t minors at once, det(H) among them, and keeps this route free of
    any closed formula. The last row is never built.

    The rows are built as integers: the divisor cleared once to D*g and
    the dividend column a_m .. a_n once to F*a. Striking a Hankel column
    leaves t - 2 columns scaled by D and the dividend column by F, so
    that integer minor I_j is D^(t-2) * F * det(M_j); striking the
    dividend column leaves I_H = D^(t-1) * det(H). Hence

        d_(n-m-j) = (-1)^(t-j) * D * I_j / (F * I_H),

    one Fraction per coefficient, each held to the output limit as it is
    formed, top-first. The rows go in reverse order, which
    puts the lead coefficients on the diagonal: each pivot row then holds
    only its lead and its dividend entry, so fill-in stays in the
    dividend column. The reversal multiplies every minor by the same
    sign, which cancels in the ratio.
    """
    n, m = _division_degrees(f, g)
    t = n - m + 2
    den, ints = _clear_denominators(g.coeffs)
    # H's window first, so a refusal names the smaller matrix past the cap.
    window = _toeplitz(ints, m, t - 1, t - 1)
    _check_order(t)
    den_f, column = _clear_denominators(f.coeffs[m:])
    minors = _integer_minors([[*row, a] for row, a in zip(window, column[::-1])])
    det_h = minors.pop()
    d = [
        _printable(Fraction((-1) ** (t - j) * den * minor, den_f * det_h))
        for j, minor in enumerate(minors)
    ]
    return Polynomial(d[::-1])


def hessenberg_det_expansion(f: Polynomial, g: Polynomial, x0) -> Fraction:
    """Last-row expansion of the Hessenberg form's determinant at x0:

        sum over i = 2 .. t of (-1)^(t-i) * x0^(t-i) * lead^(t-i) * delta_{i-1}.

    Equals anti_identity_sign(t) times det_W_at(f, g, x0), since the row
    reversal taking the cycled matrix to Hessenberg form contributes
    exactly that sign.
    """
    n, m = _division_degrees(f, g)
    t = n - m + 2
    # Reversed, the deltas are the coefficients of a polynomial in -x0 * lead.
    deltas = list(_mixed_deltas(f, g, t - 1))
    return evaluate(Polynomial(deltas[::-1]), -_coerce(x0) * g.lead)


class DeltaPureSpec(NamedTuple("DeltaPureSpec", [("views", DivisorViews), ("k", int)])):
    """Order-k determinant built from the divisor tail alone.

    The matrix is lower Hessenberg-Toeplitz: row i (1-based) holds the
    negated tail slice ending at c_{m-1} on the diagonal, with the lead
    coefficient on the superdiagonal and zeros above. Out-of-range tail
    indices read 0, so k may exceed the divisor degree.
    """

    __slots__ = ()

    def __new__(cls, views: DivisorViews, k: int):
        if k < 1:
            raise IndexOutOfRange(f"delta index must be positive, got {k}")
        return super().__new__(cls, views, k)

    _make = classmethod(lambda cls, values: cls(*values))


def pure_delta_matrix(spec: DeltaPureSpec, flipped: bool = False) -> _Rows:
    """Explicit matrix behind the pure deltas.

    Base variant: entry (i, j), 0-based, is -c(m-1-i+j) on and below the
    diagonal and lead on the superdiagonal. The flipped variant negates
    both: +c entries below, -lead above. Either way the determinant
    changes by (-1)^k between the two. As -c(j) = g_j and g_m = lead,
    this is the Toeplitz matrix of g (of -g when flipped) at shift m - 1.
    """
    views = spec.views
    sgn = -1 if flipped else 1
    coeffs = [-sgn * c for c in views.negated_tail] + [sgn * views.lead]
    return _toeplitz(coeffs, views.degree - 1, spec.k, spec.k)


def delta_pure_direct(spec: DeltaPureSpec, flipped: bool = False) -> Fraction:
    """Pure delta by building the matrix and asking the oracle.

    The matrix is lower Hessenberg with the lead on the superdiagonal.
    Moving column 0 to the end puts the leads on the diagonal, where the
    oracle's pivot rule takes them with no row swap, and multiplies the
    determinant by (-1)^(k-1), the sign of a cycle of k columns.
    """
    moved = [row[1:] + row[:1] for row in pure_delta_matrix(spec, flipped=flipped)]
    return (-1) ** (spec.k - 1) * det_oracle(moved)


def delta_pure_closed(spec: DeltaPureSpec, flipped: bool = False) -> Fraction:
    """Pure delta as one term of the general recurrent sequence. The
    written closed form is

        delta_k = (-1)^k * lead^k * sum over i = 1 .. k of t_i * c(m-k-1+i)

    for the base variant, with c(j) = -g_j reading 0 outside 0..m-1; the
    flipped variant drops the (-1)^k. The sum is one step of the
    t-recurrence, lead * t_(k+1), so delta_k = (-1)^k * lead^(k+1) * t_(k+1).

    >>> views = divisor_views(Polynomial([-1, -1, 1]))
    >>> [delta_pure_closed(DeltaPureSpec(views, k)) for k in (1, 2, 3)]
    [Fraction(-1, 1), Fraction(2, 1), Fraction(-3, 1)]
    """
    # lead = L/D and t_r = D * T_r / L^r make lead^(k+1) * t_(k+1) = T_(k+1) / D^k.
    den, _, terms = _general_terms(spec.views, spec.k + 1)
    sign = 1 if flipped or spec.k % 2 == 0 else -1
    return Fraction(sign * terms[-1], den**spec.k)


def divide_det_formula(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Full division with the quotient taken from the mixed deltas."""
    return divide_with(f, g, quotient_from_dets)


def divide_det_ratio(f: Polynomial, g: Polynomial) -> DivisionResult:
    """Full division with the quotient taken from the determinant ratio."""
    return divide_with(f, g, quotient_ratio)
