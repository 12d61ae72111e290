"""Matrix constructions, the determinant oracle, and every delta identity."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from polydiv import detengine
from polydiv.closedform import t_sequence
from polydiv.detengine import (
    DeltaMixedSpec,
    DeltaPureSpec,
    IndexOutOfRange,
    MatrixTooLarge,
    _integer_minors,
    _toeplitz,
    anti_identity_sign,
    build_anti_identity,
    build_bordered,
    build_hankel,
    build_hessenberg,
    build_permuted,
    delta_mixed,
    delta_pure_closed,
    delta_pure_direct,
    det_W_at,
    det_oracle,
    divide_det_formula,
    divide_det_ratio,
    hankel_det_closed,
    hessenberg_det_expansion,
    mixed_delta_matrix,
    pure_delta_matrix,
    quotient_from_dets,
    quotient_ratio,
)
from polydiv.polycore import (
    DegreeTooSmall,
    DivisorViews,
    Polynomial,
    ZeroDivisor,
    _clear_denominators,
    _coerce,
    divisor_views,
    evaluate,
    long_divide,
)
from strategies import (
    division_pairs,
    divisors,
    rationals,
    small_divisors,
    wide_rationals,
)


def paper_mixed_deltas(f, g, kmax):
    # The first-column expansion term by term in Fraction, with the band
    # sum over p running the full 1 .. s.
    n, m, lead = f.degree, g.degree, g.lead
    band = [Fraction(1)]
    for s in range(1, kmax):
        acc = Fraction(0)
        for p in range(1, s + 1):
            acc += (-1) ** (p + 1) * g.coeff(m - p) * lead ** (p - 1) * band[s - p]
        band.append(acc)
    return [
        sum(
            ((-1) ** (i + 1) * f.coeff(n - i + 1) * lead ** (i - 1) * band[k - i] for i in range(1, k + 1)),
            Fraction(0),
        )
        for k in range(1, kmax + 1)
    ]


def paper_pure_delta(g, k, flipped=False):
    # The written sum term by term in Fraction over the t-sequence, with
    # c(j) = -g_j reading 0 below index 0.
    m, lead = g.degree, g.lead
    t = t_sequence(divisor_views(g), k)
    acc = sum((t[i - 1] * -g.coeff(m - k - 1 + i) for i in range(1, k + 1)), Fraction(0))
    sign = 1 if flipped else (-1) ** k
    return sign * lead**k * acc


def paper_quotient_from_dets(f, g):
    n, m, lead = f.degree, g.degree, g.lead
    t = n - m + 2
    deltas = paper_mixed_deltas(f, g, t - 1)
    return Polynomial(
        [(-1) ** (t - j) * lead ** (j + 1 - t) * deltas[t - j - 2] for j in range(n - m + 1)]
    )


def paper_hessenberg_expansion(f, g, x0):
    t = f.degree - g.degree + 2
    deltas = paper_mixed_deltas(f, g, t - 1)
    return sum(
        ((-1) ** (t - i) * x0 ** (t - i) * g.lead ** (t - i) * deltas[i - 2] for i in range(2, t + 1)),
        Fraction(0),
    )


def cofactor_det(rows):
    # Textbook expansion along the first row, the hand calculation the
    # golden values came from. It shares no code with the elimination
    # behind det_oracle and quotient_ratio, so it referees both.
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * pivot * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, pivot in enumerate(rows[0])
        if pivot
    )


def matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


GOLDEN_F = Polynomial([0, 0, 0, 0, 1])
GOLDEN_G = Polynomial([-1, -1, 1])


def test_det_oracle_identity():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert det_oracle(eye) == 1


def test_det_oracle_two_by_two():
    assert det_oracle([[-1, 1], [-1, -1]]) == 2


def test_det_oracle_zero_row():
    m = [[1, 2, 3], [0, 0, 0], [4, 5, 6]]
    assert det_oracle(m) == 0
    wide = [[1, 2, 3, 4, 5], [0, 0, 0, 0, 0], [2, 3, 5, 7, 11], [1, 1, 2, 3, 5], [9, 8, 7, 6, 5]]
    assert det_oracle(wide) == 0


@st.composite
def r_by_r1_matrices(draw):
    # r-by-(r+1), one coefficient family per matrix. Entries come from a
    # drawn Random, as in lazy_row_matrices, since hypothesis's own lists
    # repeat values so often that many draws have every maximal minor 0.
    # Entries from -1, 0, 1 still make row swaps and singular blocks common.
    rng = draw(st.randoms(use_true_random=False))
    family = draw(st.sampled_from(("unit", "rational", "wide")))

    def coeff():
        if family == "unit":
            return Fraction(rng.randint(-1, 1))
        if family == "rational":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return Fraction(rng.randint(-(2**256), 2**256), rng.randint(1, 2**256))

    r = draw(st.integers(min_value=1, max_value=6))
    return [[coeff() for _ in range(r + 1)] for _ in range(r)]


def struck(rows):
    return [[row[:j] + row[j + 1:] for row in rows] for j in range(len(rows) + 1)]


def struck_minors(rows):
    return [cofactor_det(square) for square in struck(rows)]


def integer_minors(rows):
    # The integer core on a copy of the rows, which it overwrites.
    return _integer_minors([list(row) for row in rows])


def cleared(rows):
    # Each row cleared to integers by its own least common denominator,
    # and the product of those denominators, which scales every minor.
    scale = 1
    grid = []
    for row in rows:
        den, ints = _clear_denominators([_coerce(v) for v in row])
        scale *= den
        grid.append(ints)
    return scale, grid


@given(r_by_r1_matrices())
@settings(max_examples=80, deadline=None)
def test_det_oracle_matches_cofactor_expansion(rows):
    # Orders 1 .. 6 from every family; the -1, 0, 1 entries make row
    # swaps and singular matrices common.
    for square in struck(rows):
        assert det_oracle(square) == cofactor_det(square)


@given(r_by_r1_matrices())
@settings(max_examples=80, deadline=None)
def test_integer_minors_match_cofactor_minors(rows):
    scale, grid = cleared(rows)
    assert integer_minors(grid) == [scale * minor for minor in struck_minors(rows)]


def eager_minors(rows):
    # _integer_minors as it was before lazy scaling: every step brings
    # every row but the pivot row up to date, whatever its factor. The
    # reference the library kernel is held to past cofactor orders.
    grid = [list(row) for row in rows]
    size = len(grid)
    unused = list(range(size + 1))
    sign = prev = 1
    for k in range(size):
        found = next(((col, r) for col in unused for r in range(k, size) if grid[r][col]), None)
        if found is None:
            return [0] * (size + 1)
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
    return [
        sign * (prev if j == free else (-1) ** (abs(free - j) - 1) * grid[j - (j > free)][free])
        for j in range(size + 1)
    ]


@st.composite
def lazy_row_matrices(draw, families=("small", "rational", "wide")):
    # r-by-(r+1) up to order 24, or a square matrix bordered by a zero
    # column as det_oracle forms it, in the shapes where rows go many
    # steps without a nonzero factor: Hankel windows (reversed, Toeplitz),
    # lower triangles with a full last column, then a zero row, a
    # repeated row or a zero column. Entries come from a drawn Random, as
    # hypothesis's own lists repeat values so often that most matrices
    # would be singular.
    rng = draw(st.randoms(use_true_random=False))
    family = draw(st.sampled_from(families))

    def coeff():
        if family == "small":
            return rng.randint(-2, 2)
        if family == "rational":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-(2**64), 2**64)

    r = draw(st.integers(min_value=1, max_value=24))
    bordered = draw(st.booleans())
    width = r if bordered else r + 1
    shape = draw(st.sampled_from(("dense", "hankel", "toeplitz", "lower")))
    if shape == "dense":
        rows = [[coeff() for _ in range(width)] for _ in range(r)]
    elif shape == "lower":
        rows = [[coeff() if j <= i or j == width - 1 else 0 for j in range(width)] for i in range(r)]
    else:
        seq = [coeff() for _ in range(r + width)]
        rows = [seq[i : i + width] for i in range(r)]
        if shape == "toeplitz":
            rows.reverse()
    # At most one edit. A zero row or a repeated row leaves every maximal
    # minor 0, after the pass has run until its pivots give out.
    edit = draw(st.sampled_from((None, None, "zero row", "repeated row", "zero column")))
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, width - 1))
    if edit == "zero row":
        rows[i] = [0] * width
    elif edit == "repeated row":
        rows[i] = list(rows[j % r])
    elif edit == "zero column":
        for row in rows:
            row[j] = 0
    return [row + [0] for row in rows] if bordered else rows


@given(lazy_row_matrices())
@settings(max_examples=150, deadline=None)
def test_integer_minors_match_eager_elimination(rows):
    _, grid = cleared(rows)
    assert integer_minors(grid) == eager_minors(grid)


def test_integer_minors_match_eager_elimination_on_sparse_rows():
    # Sparse small-integer rows, orders 2 to 7: row swaps between rows
    # last brought up to date at different pivots are common here, and
    # rare in the structured shapes above.
    rng = random.Random(0)
    entries = (0, 0, 0, 0, 1, -1, 2, 3)
    for _ in range(2000):
        r = rng.randint(2, 7)
        rows = [[rng.choice(entries) for _ in range(r + 1)] for _ in range(r)]
        assert integer_minors(rows) == eager_minors(rows), rows


def handed_grids(fn, *args):
    # The integer rows that fn hands the integer core, copied before the
    # core overwrites them.
    handed = []
    core = detengine._integer_minors

    def recording_core(grid):
        handed.append([list(row) for row in grid])
        return core(grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detengine, "_integer_minors", recording_core)
        fn(*args)
    return handed


@st.composite
def banded_shapes(draw):
    # f and g with W of order up to the cap of 64 (where the test's
    # first example is; its second is at 256 bits), m 1 .. 8, and
    # coefficients of 8 to 256 bits, a quarter of them 0 below the leads.
    # Wider coefficients come at lower orders, which bounds the time of
    # the eager reference.
    rng = draw(st.randoms(use_true_random=False))
    bits = draw(st.sampled_from((8, 16, 32, 64, 128, 256)))
    order = draw(st.integers(min_value=1, max_value=min(63, 8192 // bits)))
    m = draw(st.integers(min_value=1, max_value=8))

    def coeff():
        return rng.choice((0, 1, 1, 1)) * rng.randint(-(2**bits), 2**bits)

    def lead():
        return rng.choice((1, -1)) * rng.randint(1, 2**bits)

    f = Polynomial([coeff() for _ in range(order + m - 1)] + [lead()])
    g = Polynomial([coeff() for _ in range(m)] + [lead()])
    return f, g


def integer_pair(n, m, bits):
    # f of degree n and g of degree m, every coefficient a positive
    # integer of at most the given bits.
    rng = random.Random(0)
    return (
        Polynomial([rng.randint(1, 2**bits) for _ in range(n + 1)]),
        Polynomial([rng.randint(1, 2**bits) for _ in range(m + 1)]),
    )


@given(banded_shapes())
@example(integer_pair(70, 8, 8))
@example(integer_pair(39, 8, 256))
@settings(max_examples=25, deadline=None)
def test_integer_minors_match_eager_elimination_on_route_rows(pair):
    # The rows the two determinant routes hand over: quotient_ratio's
    # reversed Hankel window with the dividend column, of order n - m + 1,
    # and delta_pure_direct's Toeplitz band with its first column moved
    # to the end, bordered by det_oracle's zero column, at the same order.
    f, g = pair
    (ratio,) = handed_grids(quotient_ratio, f, g)
    (direct,) = handed_grids(delta_pure_direct, DeltaPureSpec(divisor_views(g), len(ratio)))
    for grid in ratio, direct:
        assert integer_minors(grid) == eager_minors(grid)


class CountingRow(list):
    """A row that counts the entries written into it."""

    def __init__(self, values):
        super().__init__(values)
        self.writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


@pytest.mark.parametrize("n, m", [(34, 4), (65, 4)])
def test_quotient_ratio_elimination_writes_the_dividend_column_alone(n, m):
    # At each step only the dividend entries of the m rows below the
    # pivot row take new values, so the pass writes at most order * m
    # entries; order * (m + 2) leaves room for catch-ups. Rescaling every
    # entry of every updated row wrote 1995 at order 31 and 7854 at 62.
    (grid,) = handed_grids(quotient_ratio, *integer_pair(n, m, 16))
    rows = [CountingRow(row) for row in grid]
    assert integer_minors(grid) == _integer_minors(rows)
    assert sum(row.writes for row in rows) <= len(grid) * (m + 2)


@pytest.mark.parametrize(
    "rows, expected",
    [
        # A zero in the first pivot position: rows 0 and 1 swap.
        ([[0, 1, 2], [3, 4, 5]], [-3, -6, -3]),
        ([[0, 0, 1, 2], [0, 1, 0, 3], [1, 0, 0, 4]], [-4, 3, -2, -1]),
        # Singular left block: column 1 is twice column 0, so the free
        # column is 1 and only the minor keeping both is 0.
        ([[1, 2, 3], [2, 4, 5]], [-2, -1, 0]),
        # Rank 2 < r = 3: every minor is 0.
        ([[1, 2, 3, 4], [2, 3, 4, 5], [3, 5, 7, 9]], [0, 0, 0, 0]),
        ([[0, 0, 0], [1, 2, 3]], [0, 0, 0]),
        # Lazy rows. A lower triangle with a full last column, the shape
        # pure-direct and det-ratio hand over: rows 0 and 1 skip the
        # later steps and catch up at the end.
        ([[2, 0, 0, 1], [1, 3, 0, 1], [1, 1, 5, 1]], [15, -5, 2, 30]),
        # Row 1 skips step 0, then catches up as the pivot row.
        ([[2, 1, 1, 1], [0, 3, 1, 2], [1, 1, 4, 1]], [3, -13, 1, 20]),
        # Row 2 skips step 0, then catches up with its factor at step 1,
        # where row 0, step 0's pivot row, is updated from pivot 2.
        ([[2, 1, 1, 1], [1, 3, 1, 2], [0, 1, 4, 1]], [3, -11, 2, 19]),
        # r = 1: striking one entry leaves the other.
        ([[5, -7]], [-7, 5]),
        ([[0, 0]], [0, 0]),
    ],
)
def test_integer_minors_hand_cases(rows, expected):
    assert integer_minors(rows) == expected == struck_minors(rows)


def test_det_oracle_clears_each_row_by_its_own_denominator():
    # Rows with denominators 6 and 35: each row's own factor scales the
    # integer minor, and their product divides it out.
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_oracle(rows) == Fraction(1, 210) == cofactor_det(rows)
    assert det_oracle([[Fraction(-7, 3)]]) == Fraction(-7, 3)


def test_det_oracle_rejects_non_square():
    ragged_or_empty = ([[1, 2], [3]], [])
    not_square = ([[1, 2]], [[1], [2]], [[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]])
    for rows in ragged_or_empty + not_square:
        with pytest.raises(IndexOutOfRange, match="det_oracle"):
            det_oracle(rows)


def test_det_oracle_rejects_floats():
    with pytest.raises(TypeError):
        det_oracle([[0.5]])


def test_anti_identity_sign_small_orders():
    assert anti_identity_sign(1) == 1
    assert anti_identity_sign(2) == -1
    assert anti_identity_sign(4) == 1
    assert anti_identity_sign(5) == 1
    assert anti_identity_sign(6) == -1


def test_anti_identity_rejects_order_zero():
    with pytest.raises(IndexOutOfRange):
        build_anti_identity(0)
    with pytest.raises(IndexOutOfRange):
        anti_identity_sign(0)


@pytest.mark.parametrize("t", range(1, 11))
def test_anti_identity_sign_matches_oracle(t):
    assert anti_identity_sign(t) == det_oracle(build_anti_identity(t))


def test_build_hankel_golden():
    matrix = build_hankel(GOLDEN_G, 4)
    assert matrix == ((-1, -1, 1), (-1, 1, 0), (1, 0, 0))


def test_build_hankel_degenerate_orders():
    assert build_hankel(Polynomial([1, 0, 7]), 2) == ((Fraction(7),),)
    monic = Polynomial([5, 4, 1])
    assert build_hankel(monic, 3) == ((4, 1), (1, 0))


def test_build_hankel_rejects_small_target():
    with pytest.raises(DegreeTooSmall):
        build_hankel(GOLDEN_G, 1)
    with pytest.raises(DegreeTooSmall):
        hankel_det_closed(GOLDEN_G, 1)


@pytest.mark.parametrize("builder", [build_hankel, hankel_det_closed])
@pytest.mark.parametrize("n", [0, 3])
def test_hankel_pair_rejects_zero_divisor(builder, n):
    # The zero polynomial has no degree to compare n with; reading its
    # lead first refuses it with the same error as every other route.
    with pytest.raises(ZeroDivisor, match="^the zero polynomial has no leading coefficient$"):
        builder(Polynomial([]), n)


@given(division_pairs(max_n=9))
def test_build_hankel_shape(pair):
    f, g = pair
    n, m = f.degree, g.degree
    matrix = build_hankel(g, n)
    size = n - m + 1
    assert len(matrix) == size
    for i in range(size):
        for j in range(size):
            assert matrix[i][j] == g.coeff(2 * m - n + i + j)
            if i + j == size - 1:
                assert matrix[i][j] == g.lead
            elif i + j > size - 1:
                assert matrix[i][j] == 0


def test_hankel_det_closed_golden():
    assert hankel_det_closed(GOLDEN_G, 4) == -1


def test_hankel_det_closed_order_one():
    assert hankel_det_closed(Polynomial([3, 7]), 1) == 7


def test_hankel_det_closed_scaled_cube():
    assert hankel_det_closed(Polynomial([0, 2]), 3) == -8


@given(divisors.filter(lambda g: g.degree <= 6), st.integers(min_value=0, max_value=6))
def test_hankel_det_closed_matches_oracle(g, extra):
    n = g.degree + extra
    assert hankel_det_closed(g, n) == det_oracle(build_hankel(g, n))


def test_det_W_at_golden_points():
    assert det_W_at(GOLDEN_F, GOLDEN_G, 0) == 2
    assert det_W_at(GOLDEN_F, GOLDEN_G, 1) == 4


@given(divisors, rationals)
def test_det_W_at_self_division(g, x0):
    assert det_W_at(g, g, x0) == -g.lead


def test_det_W_at_requires_shape():
    # The message pins the shared guard: past it, build_hankel would
    # refuse this shape with a DegreeTooSmall of its own.
    with pytest.raises(DegreeTooSmall, match="dividend degree must reach the divisor degree"):
        det_W_at(Polynomial([1, 1]), Polynomial([0, 0, 1]), 0)
    # A constant divisor is a shape like any other: H is 3 times the
    # order-5 anti-identity, so det W(1) = -3^5 * q(1) with q = x^4 / 3.
    assert det_W_at(GOLDEN_F, Polynomial([3]), 1) == -(3**5) * Fraction(1, 3)
    assert quotient_from_dets(GOLDEN_F, Polynomial([3])) == GOLDEN_F * Fraction(1, 3)


def test_delta_mixed_goldens():
    for k, expected in ((1, 1), (2, -1), (3, 2)):
        spec = DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=k)
        assert delta_mixed(spec) == expected
        assert det_oracle(mixed_delta_matrix(spec)) == expected


def test_delta_mixed_matrix_goldens():
    assert mixed_delta_matrix(DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=2)) == ((1, 1), (0, -1))
    assert mixed_delta_matrix(DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=3)) == (
        (1, 1, 0),
        (0, -1, 1),
        (0, -1, -1),
    )


def test_delta_mixed_rejects_bad_index():
    valid = DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=1)
    for k in (0, 4):
        with pytest.raises(IndexOutOfRange):
            DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=k)
        with pytest.raises(IndexOutOfRange):
            valid._replace(k=k)


@given(division_pairs(max_n=8))
@settings(max_examples=60)
def test_delta_mixed_matches_matrix_oracle(pair):
    f, g = pair
    for k in range(1, f.degree - g.degree + 2):
        spec = DeltaMixedSpec(f=f, g=g, k=k)
        assert delta_mixed(spec) == det_oracle(mixed_delta_matrix(spec))


def test_quotient_from_dets_golden():
    assert quotient_from_dets(GOLDEN_F, GOLDEN_G) == Polynomial([2, 1, 1])


def test_quotient_from_dets_monomials():
    q = quotient_from_dets(Polynomial([0] * 5 + [3]), Polynomial([0, 0, 2]))
    assert q == Polynomial([0, 0, 0, Fraction(3, 2)])


@given(divisors)
def test_quotient_from_dets_self_division(g):
    assert quotient_from_dets(g, g) == Polynomial([1])


@given(division_pairs(max_n=30))
@settings(max_examples=60)
def test_quotient_from_dets_matches_oracle(pair):
    f, g = pair
    assert quotient_from_dets(f, g) == long_divide(f, g).quotient


@given(division_pairs(max_n=30))
@settings(max_examples=40, deadline=None)
def test_mixed_deltas_match_paper_sums(pair):
    f, g = pair
    kmax = f.degree - g.degree + 1
    expected = paper_mixed_deltas(f, g, kmax)
    assert [delta_mixed(DeltaMixedSpec(f=f, g=g, k=k)) for k in range(1, kmax + 1)] == expected
    q = quotient_from_dets(f, g)
    assert q == paper_quotient_from_dets(f, g)
    assert q == long_divide(f, g).quotient


@given(division_pairs(max_n=30), st.one_of(rationals, wide_rationals))
@settings(max_examples=40, deadline=None)
def test_hessenberg_expansion_matches_paper_sum(pair, x0):
    # det W(x0) = -det(H) * q(x0), and the Hessenberg form carries the
    # row-reversal sign on top.
    f, g = pair
    t = f.degree - g.degree + 2
    value = hessenberg_det_expansion(f, g, x0)
    assert value == paper_hessenberg_expansion(f, g, x0)
    quotient = long_divide(f, g).quotient
    assert value == -anti_identity_sign(t) * hankel_det_closed(g, f.degree) * evaluate(quotient, x0)


def test_quotient_ratio_golden():
    assert quotient_ratio(GOLDEN_F, GOLDEN_G) == Polynomial([2, 1, 1])


def test_quotient_ratio_constant_multiple():
    f = GOLDEN_G * Polynomial([Fraction(7, 3)])
    assert quotient_ratio(f, GOLDEN_G) == Polynomial([Fraction(7, 3)])


def test_toeplitz_pads_with_a_zero_of_the_entries_type():
    ints = _toeplitz((1, 2, 3), 1, 3, 4)
    assert ints == ((2, 3, 0, 0), (1, 2, 3, 0), (0, 1, 2, 3))
    assert {type(v) for row in ints for v in row} == {int}
    fractions = _toeplitz((Fraction(1, 2), Fraction(3)), 0, 2, 3)
    assert fractions == ((Fraction(1, 2), 3, 0), (0, Fraction(1, 2), 3))
    assert {type(v) for row in fractions for v in row} == {Fraction}
    # So quotient_ratio hands the integer core int rows only, padding
    # included: here H is order 3 and anti-triangular.
    f = Polynomial([Fraction(1, 3), 0, 0, 0, 2])
    g = Polynomial([-1, Fraction(-1, 2), 1])
    (grid,) = handed_grids(quotient_ratio, f, g)
    assert quotient_ratio(f, g) == long_divide(f, g).quotient
    assert 0 in grid[0] and {type(v) for row in grid for v in row} == {int}


def test_quotient_ratio_cubic():
    q = quotient_ratio(Polynomial([0, 0, 0, 1]), Polynomial([-1, 1]))
    assert q == Polynomial([1, 1, 1])


@given(division_pairs(max_n=8), rationals)
@settings(max_examples=40, deadline=None)
def test_quotient_ratio_matches_oracle(pair, x0):
    f, g = pair
    q = quotient_ratio(f, g)
    assert q == long_divide(f, g).quotient
    # The ratio identity itself, at a point: q(x0) * det(H) = -det W(x0).
    assert evaluate(q, x0) * det_oracle(build_hankel(g, f.degree)) == -det_W_at(f, g, x0)


def cofactor_ratio(f, g):
    # The ratio over W's rows above the x0 row, with each minor from its
    # own elimination: det_oracle on the square left by striking one
    # column. The reference for the integer rows. Reversed, as in
    # quotient_ratio, the leads are the pivots, so no row swap or fill-in
    # slows det_oracle; the reversal's sign cancels in the ratio.
    rows = build_bordered(f, g, 0)[:-1][::-1]
    t = len(rows) + 1
    minors = [det_oracle(square) for square in struck(rows)]
    det_h = minors.pop()
    return Polynomial([(-1) ** (t - j) * minor / det_h for j, minor in enumerate(minors)][::-1])


def wide_pair(n, m, rng_seed):
    # f of degree n and g of degree m, every coefficient a nonzero
    # rational with numerator and denominator up to 2^256.
    rng = random.Random(rng_seed)

    def coeff():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 2**256), rng.randint(1, 2**256))

    return Polynomial([coeff() for _ in range(n + 1)]), Polynomial([coeff() for _ in range(m + 1)])


@seed(4)
@given(division_pairs(max_n=31, families=(wide_rationals,)))
@example(wide_pair(31, 1, 0))
@example(wide_pair(32, 1, 1))
@settings(max_examples=30, deadline=None)
def test_quotient_ratio_matches_oracle_at_served_orders(pair):
    # verify serves W up to order 32. The two examples fix W at orders 32
    # and 33, whatever the draws reach. The wide family brings rational f
    # and g with leads up to 2^256, so D, F and every row's own
    # denominator differ.
    f, g = pair
    q = quotient_ratio(f, g)
    assert q == long_divide(f, g).quotient
    assert q == cofactor_ratio(f, g)


def test_hessenberg_expansion_goldens():
    assert hessenberg_det_expansion(GOLDEN_F, GOLDEN_G, 0) == 2
    assert hessenberg_det_expansion(GOLDEN_F, GOLDEN_G, 1) == 4


@given(divisors, rationals)
def test_hessenberg_expansion_order_two(g, x0):
    # n = m makes t = 2: the sum collapses to the single term delta_1.
    assert hessenberg_det_expansion(g, g, x0) == g.lead


@given(division_pairs(max_n=8), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bordered_identity(pair, points):
    f, g = pair
    t = f.degree - g.degree + 2
    sign = anti_identity_sign(t)
    for x0 in points:
        assert det_W_at(f, g, x0) == sign * hessenberg_det_expansion(f, g, x0)


@given(division_pairs(max_n=7), rationals)
@settings(max_examples=40)
def test_hessenberg_is_reversed_permuted(pair, x0):
    f, g = pair
    t = f.degree - g.degree + 2
    hess = build_hessenberg(f, g, x0)
    assert hess == matmul(build_anti_identity(t), build_permuted(f, g, x0))


@given(division_pairs(max_n=7), rationals)
@settings(max_examples=40, deadline=None)
def test_cycling_preserves_determinant(pair, x0):
    f, g = pair
    bordered = build_bordered(f, g, x0)
    permuted = build_permuted(f, g, x0)
    assert det_oracle(permuted) == det_oracle(bordered)


@given(division_pairs(max_n=7), rationals)
@settings(max_examples=40)
def test_hessenberg_leading_minor_is_mixed_delta_matrix(pair, x0):
    f, g = pair
    hess = build_hessenberg(f, g, x0)
    for k in range(1, f.degree - g.degree + 2):
        spec = DeltaMixedSpec(f=f, g=g, k=k)
        assert tuple(row[:k] for row in hess[:k]) == mixed_delta_matrix(spec)


def test_pure_delta_goldens():
    views = divisor_views(GOLDEN_G)
    for k, expected in ((1, -1), (2, 2), (3, -3)):
        spec = DeltaPureSpec(views=views, k=k)
        assert delta_pure_closed(spec) == expected
        assert delta_pure_direct(spec) == expected
        flipped = -expected if k % 2 else expected
        assert delta_pure_closed(spec, flipped=True) == flipped
        assert delta_pure_direct(spec, flipped=True) == flipped


def test_pure_delta_matrix_golden():
    views = divisor_views(GOLDEN_G)
    assert pure_delta_matrix(DeltaPureSpec(views=views, k=2)) == ((-1, 1), (-1, -1))
    assert pure_delta_matrix(DeltaPureSpec(views=views, k=2), flipped=True) == ((1, -1), (1, 1))
    # The same views built by hand from ints still give Fraction entries,
    # and a float is refused, as for every other exact input.
    by_hand = pure_delta_matrix(DeltaPureSpec(views=DivisorViews(lead=1, negated_tail=(1, 1)), k=2))
    assert by_hand == ((-1, 1), (-1, -1))
    assert all(type(v) is Fraction for row in by_hand for v in row)
    with pytest.raises(TypeError):
        pure_delta_matrix(DeltaPureSpec(views=DivisorViews(lead=0.5, negated_tail=(1,)), k=1))


def test_pure_delta_zero_tail():
    views = divisor_views(Polynomial([0, 0, 0, 2]))
    for k in (1, 2, 4):
        spec = DeltaPureSpec(views=views, k=k)
        assert delta_pure_direct(spec) == 0
        assert delta_pure_closed(spec) == 0


def test_pure_delta_direct_at_large_k():
    # Past the small k of the hypothesis tests: a 1024-bit quadratic at
    # k 24 and an 8-bit degree-6 divisor at k 60, near the order cap.
    rng = random.Random(20)
    wide = Polynomial([rng.getrandbits(1024) - 2**1023 for _ in range(2)] + [rng.getrandbits(1024) | 1])
    narrow = Polynomial([rng.randint(-128, 127) for _ in range(6)] + [rng.randint(1, 127)])
    for g, k in ((wide, 24), (narrow, 60)):
        spec = DeltaPureSpec(views=divisor_views(g), k=k)
        for flipped in (False, True):
            assert delta_pure_direct(spec, flipped=flipped) == delta_pure_closed(spec, flipped=flipped)


def test_pure_delta_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        DeltaPureSpec(views=divisor_views(GOLDEN_G), k=0)
    with pytest.raises(IndexOutOfRange):
        DeltaPureSpec(views=divisor_views(GOLDEN_G), k=1)._replace(k=0)


@given(division_pairs(max_n=9), divisors, st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=60)
def test_windowed_builder_entries(pair, g, k, data):
    # Each entry against its written formula, one index at a time.
    f, h = pair
    n, m = f.degree, h.degree
    mixed_k = data.draw(st.integers(min_value=1, max_value=n - m + 1))
    mixed = mixed_delta_matrix(DeltaMixedSpec(f=f, g=h, k=mixed_k))
    for i in range(mixed_k):
        assert mixed[i][0] == f.coeff(n - i)
        for j in range(1, mixed_k):
            assert mixed[i][j] == h.coeff(m - i + j - 1)
    views = divisor_views(g)
    for flipped, sgn in ((False, 1), (True, -1)):
        pure = pure_delta_matrix(DeltaPureSpec(views=views, k=k), flipped=flipped)
        for i in range(k):
            for j in range(k):
                if j <= i:
                    expected = sgn * g.coeff(views.degree - 1 - i + j)
                else:
                    expected = sgn * views.lead if j == i + 1 else 0
                assert pure[i][j] == expected
    anti = build_anti_identity(k)
    for i in range(k):
        for j in range(k):
            assert anti[i][j] == (1 if i + j == k - 1 else 0)


@given(
    division_pairs(max_n=9),
    divisors,
    st.integers(min_value=1, max_value=10),
    st.one_of(st.integers(min_value=-3, max_value=3), rationals),
    st.data(),
)
@settings(max_examples=60)
def test_builders_hand_out_canonical_rows(pair, g, k, x0, data):
    # No constructor stands between a builder and its caller, so every
    # builder must itself return a square tuple of tuples of Fraction.
    f, h = pair
    t = f.degree - h.degree + 2
    mixed_k = data.draw(st.integers(min_value=1, max_value=t - 1))
    views = divisor_views(g)
    for matrix, order in (
        (build_anti_identity(k), k),
        (build_hankel(h, f.degree), t - 1),
        (build_bordered(f, h, x0), t),
        (build_permuted(f, h, x0), t),
        (build_hessenberg(f, h, x0), t),
        (mixed_delta_matrix(DeltaMixedSpec(f=f, g=h, k=mixed_k)), mixed_k),
        (pure_delta_matrix(DeltaPureSpec(views=views, k=k)), k),
        (pure_delta_matrix(DeltaPureSpec(views=views, k=k), flipped=True), k),
    ):
        assert type(matrix) is tuple and len(matrix) == order
        for row in matrix:
            assert type(row) is tuple and len(row) == order
            assert all(type(v) is Fraction for v in row)


@given(divisors, st.integers(min_value=1, max_value=8))
@settings(max_examples=80)
def test_pure_delta_duality(g, k):
    spec = DeltaPureSpec(views=divisor_views(g), k=k)
    base = delta_pure_closed(spec)
    assert base == delta_pure_direct(spec)
    flipped = delta_pure_closed(spec, flipped=True)
    assert flipped == delta_pure_direct(spec, flipped=True)
    assert flipped == (-1) ** k * base


@given(small_divisors, st.integers(min_value=1, max_value=128))
@settings(max_examples=100, deadline=None)
def test_pure_delta_matches_paper_sum(g, k):
    spec = DeltaPureSpec(views=divisor_views(g), k=k)
    assert delta_pure_closed(spec) == paper_pure_delta(g, k)
    assert delta_pure_closed(spec, flipped=True) == paper_pure_delta(g, k, flipped=True)


@given(division_pairs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_divide_wrappers_match_oracle(pair):
    f, g = pair
    expected = long_divide(f, g)
    assert divide_det_formula(f, g) == expected
    assert divide_det_ratio(f, g) == expected


def test_divide_wrappers_short_circuit():
    f = Polynomial([3, 1])
    g = Polynomial([1, 2, 2, 1])
    assert divide_det_formula(f, g).remainder == f
    assert divide_det_ratio(f, g).quotient.is_zero
    const = divide_det_formula(f, Polynomial([2]))
    assert const.quotient == Polynomial([Fraction(3, 2), Fraction(1, 2)])
    assert const.remainder.is_zero
    # The shortcut keeps det-ratio's order cap off constant divisors.
    high = Polynomial([0] * 70 + [1])
    assert divide_det_ratio(high, Polynomial([2])).quotient == high * Fraction(1, 2)


def test_matrix_order_cap():
    with pytest.raises(MatrixTooLarge):
        build_anti_identity(65)
    with pytest.raises(MatrixTooLarge, match="matrix order 65 "):
        pure_delta_matrix(DeltaPureSpec(divisor_views(GOLDEN_G), 65))
    with pytest.raises(MatrixTooLarge):
        build_hankel(Polynomial([0, 1]), 80)
    with pytest.raises(MatrixTooLarge, match="matrix order 65 "):
        mixed_delta_matrix(DeltaMixedSpec(f=Polynomial([0] * 65 + [1]), g=Polynomial([0, 1]), k=65))
    with pytest.raises(MatrixTooLarge, match="matrix order 69 "):
        quotient_ratio(Polynomial([0] * 69 + [1]), Polynomial([0, 1]))
    with pytest.raises(MatrixTooLarge, match="matrix order 69 "):
        build_bordered(Polynomial([0] * 69 + [1]), Polynomial([0, 1]), 0)
    with pytest.raises(MatrixTooLarge, match="matrix order 69 "):
        build_hessenberg(Polynomial([0] * 69 + [1]), Polynomial([0, 1]), 0)
    # H for x^64 / x has order 64 and fits; W has order 65 and does not.
    with pytest.raises(MatrixTooLarge, match="matrix order 65 "):
        quotient_ratio(Polynomial([0] * 64 + [1]), Polynomial([0, 1]))
    q = quotient_ratio(Polynomial([0] * 63 + [1]), Polynomial([0, 1]))
    assert q == Polynomial([0] * 62 + [1])
    # Order 64 itself is served by every builder.
    x63, x64 = Polynomial([0] * 63 + [1]), Polynomial([0] * 64 + [1])
    served = [
        build_anti_identity(64),
        build_hankel(Polynomial([0, 1]), 64),
        build_bordered(x63, Polynomial([0, 1]), 0),
        build_hessenberg(x63, Polynomial([0, 1]), 0),
        mixed_delta_matrix(DeltaMixedSpec(f=x64, g=Polynomial([0, 1]), k=64)),
        pure_delta_matrix(DeltaPureSpec(divisor_views(GOLDEN_G), 64)),
    ]
    assert [(len(rows), len(rows[0])) for rows in served] == [(64, 64)] * 6

