"""Matrix constructions, the determinant oracle, and every delta identity."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydiv.detengine import (
    DeltaMixedSpec,
    DeltaPureSpec,
    ExactMatrix,
    IndexOutOfRange,
    MatrixTooLarge,
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
    maximal_minors,
    mixed_delta_matrix,
    pure_delta_matrix,
    quotient_from_dets,
    quotient_ratio,
)
from polydiv.detengine import _det_cofactor
from polydiv.polycore import (
    DegreeTooSmall,
    Polynomial,
    divisor_views,
    evaluate,
    long_divide,
)
from strategies import division_pairs, divisors, proper_divisors, rationals, wide_rationals


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


GOLDEN_F = Polynomial([0, 0, 0, 0, 1])
GOLDEN_G = Polynomial([-1, -1, 1])


def test_det_oracle_identity():
    eye = ExactMatrix([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert det_oracle(eye) == 1


def test_det_oracle_two_by_two():
    assert det_oracle(ExactMatrix([[-1, 1], [-1, -1]])) == 2


def test_det_oracle_zero_row():
    m = ExactMatrix([[1, 2, 3], [0, 0, 0], [4, 5, 6]])
    assert det_oracle(m) == 0
    wide = ExactMatrix(
        [[1, 2, 3, 4, 5], [0, 0, 0, 0, 0], [2, 3, 5, 7, 11], [1, 1, 2, 3, 5], [9, 8, 7, 6, 5]]
    )
    assert det_oracle(wide) == 0


@given(st.lists(st.lists(rationals, min_size=5, max_size=5), min_size=5, max_size=5))
@settings(max_examples=50)
def test_det_oracle_routes_agree_above_cofactor_cutoff(rows):
    # Order 5 exercises the elimination path; cofactor expansion is the
    # independent cross-check here.
    matrix = ExactMatrix(rows)
    assert det_oracle(matrix) == _det_cofactor(matrix.rows)


@st.composite
def r_by_r1_matrices(draw):
    # r-by-(r+1), one coefficient family per matrix. Entries from
    # -1, 0, 1 make singular left blocks and rank below r common.
    coeffs = draw(st.sampled_from((rationals, wide_rationals, st.integers(-1, 1).map(Fraction))))
    r = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.lists(coeffs, min_size=r + 1, max_size=r + 1), min_size=r, max_size=r))


def struck_minors(rows):
    return [det_oracle(ExactMatrix([row[:j] + row[j + 1:] for row in rows])) for j in range(len(rows) + 1)]


@given(r_by_r1_matrices())
@settings(max_examples=80, deadline=None)
def test_maximal_minors_match_oracle(rows):
    # Struck minors up to order 4 come from cofactor expansion, which
    # shares no code with the elimination.
    assert maximal_minors(rows) == struck_minors(rows)


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
        # r = 1: striking one entry leaves the other.
        ([[5, Fraction(-7, 3)]], [Fraction(-7, 3), 5]),
        ([[0, 0]], [0, 0]),
    ],
)
def test_maximal_minors_hand_cases(rows, expected):
    assert maximal_minors(rows) == expected == struck_minors(rows)


def test_maximal_minors_rejects_bad_shapes():
    for rows in ([], [[1, 2]] * 2, [[1, 2, 3]], [[1, 2, 3], [4, 5]]):
        with pytest.raises(IndexOutOfRange):
            maximal_minors(rows)
    with pytest.raises(TypeError):
        maximal_minors([[0.5, 1]])


def test_exact_matrix_rejects_ragged_and_empty():
    with pytest.raises(IndexOutOfRange):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(IndexOutOfRange):
        ExactMatrix([])


def test_exact_matrix_is_immutable():
    m = ExactMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = ((Fraction(2),),)


def test_anti_identity_sign_small_orders():
    assert anti_identity_sign(1) == 1
    assert anti_identity_sign(2) == -1
    assert anti_identity_sign(4) == 1
    assert anti_identity_sign(5) == 1
    assert anti_identity_sign(6) == -1


@pytest.mark.parametrize("t", range(1, 11))
def test_anti_identity_sign_matches_oracle(t):
    assert anti_identity_sign(t) == det_oracle(build_anti_identity(t))


def test_build_hankel_golden():
    matrix = build_hankel(GOLDEN_G, 4)
    assert matrix.rows == ExactMatrix([[-1, -1, 1], [-1, 1, 0], [1, 0, 0]]).rows


def test_build_hankel_degenerate_orders():
    assert build_hankel(Polynomial([1, 0, 7]), 2).rows == ((Fraction(7),),)
    monic = Polynomial([5, 4, 1])
    assert build_hankel(monic, 3) == ExactMatrix([[4, 1], [1, 0]])


def test_build_hankel_rejects_small_target():
    with pytest.raises(DegreeTooSmall):
        build_hankel(GOLDEN_G, 1)


@given(division_pairs(max_n=9))
def test_build_hankel_shape(pair):
    f, g = pair
    n, m = f.degree, g.degree
    matrix = build_hankel(g, n)
    size = n - m + 1
    assert matrix.order == size
    for i in range(size):
        for j in range(size):
            if i + j == size - 1:
                assert matrix.entry(i, j) == g.lead
            elif i + j > size - 1:
                assert matrix.entry(i, j) == 0


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


@given(proper_divisors, rationals)
def test_det_W_at_self_division(g, x0):
    assert det_W_at(g, g, x0) == -g.lead


def test_det_W_at_requires_shape():
    with pytest.raises(DegreeTooSmall):
        det_W_at(Polynomial([1, 1]), Polynomial([0, 0, 1]), 0)
    with pytest.raises(DegreeTooSmall):
        det_W_at(GOLDEN_F, Polynomial([3]), 0)


def test_delta_mixed_goldens():
    for k, expected in ((1, 1), (2, -1), (3, 2)):
        spec = DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=k)
        assert delta_mixed(spec) == expected
        assert det_oracle(mixed_delta_matrix(spec)) == expected


def test_delta_mixed_matrix_goldens():
    assert mixed_delta_matrix(DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=2)) == ExactMatrix(
        [[1, 1], [0, -1]]
    )
    assert mixed_delta_matrix(DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=3)) == ExactMatrix(
        [[1, 1, 0], [0, -1, 1], [0, -1, -1]]
    )


def test_delta_mixed_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=0)
    with pytest.raises(IndexOutOfRange):
        DeltaMixedSpec(f=GOLDEN_F, g=GOLDEN_G, k=4)


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


@given(proper_divisors)
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


def test_hessenberg_expansion_goldens():
    assert hessenberg_det_expansion(GOLDEN_F, GOLDEN_G, 0) == 2
    assert hessenberg_det_expansion(GOLDEN_F, GOLDEN_G, 1) == 4


@given(proper_divisors, rationals)
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
    assert hess == build_anti_identity(t) @ build_permuted(f, g, x0)


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
        assert hess.leading_minor(k) == mixed_delta_matrix(spec)


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
    assert pure_delta_matrix(DeltaPureSpec(views=views, k=2)) == ExactMatrix(
        [[-1, 1], [-1, -1]]
    )
    assert pure_delta_matrix(DeltaPureSpec(views=views, k=2), flipped=True) == ExactMatrix(
        [[1, -1], [1, 1]]
    )


def test_pure_delta_zero_tail():
    views = divisor_views(Polynomial([0, 0, 0, 2]))
    for k in (1, 2, 4):
        spec = DeltaPureSpec(views=views, k=k)
        assert delta_pure_direct(spec) == 0
        assert delta_pure_closed(spec) == 0


def test_pure_delta_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        DeltaPureSpec(views=divisor_views(GOLDEN_G), k=0)


@given(divisors, st.integers(min_value=1, max_value=8))
@settings(max_examples=80)
def test_pure_delta_duality(g, k):
    spec = DeltaPureSpec(views=divisor_views(g), k=k)
    base = delta_pure_closed(spec)
    assert base == delta_pure_direct(spec)
    flipped = delta_pure_closed(spec, flipped=True)
    assert flipped == delta_pure_direct(spec, flipped=True)
    assert flipped == (-1) ** k * base


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


def test_matrix_order_cap():
    with pytest.raises(MatrixTooLarge):
        build_anti_identity(65)
    with pytest.raises(MatrixTooLarge):
        build_hankel(Polynomial([0, 1]), 80)
    with pytest.raises(MatrixTooLarge, match="matrix order 69 "):
        quotient_ratio(Polynomial([0] * 69 + [1]), Polynomial([0, 1]))
    # H for x^64 / x has order 64 and fits; W has order 65 and does not.
    with pytest.raises(MatrixTooLarge, match="matrix order 65 "):
        quotient_ratio(Polynomial([0] * 64 + [1]), Polynomial([0, 1]))
    q = quotient_ratio(Polynomial([0] * 63 + [1]), Polynomial([0, 1]))
    assert q == Polynomial([0] * 62 + [1])


def test_exact_matrix_rejects_floats():
    with pytest.raises(TypeError):
        ExactMatrix([[0.5]])


def test_leading_minor_bounds():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m.leading_minor(1) == ExactMatrix([[1]])
    with pytest.raises(IndexOutOfRange):
        m.leading_minor(3)
    with pytest.raises(IndexOutOfRange):
        m.leading_minor(0)
