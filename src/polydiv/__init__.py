"""Exact univariate polynomial division by four routes.

Long division is the oracle; the recurrent sequence, the mixed-delta
determinant formula and the determinant ratio reproduce it coefficient
for coefficient, and the verify machinery holds all routes to exact
agreement.
"""
from .closedform import (
    divide_closed,
    quotient_closed,
    remainder_closed,
    s_sequence,
    t_sequence,
)
from .detengine import (
    DEFAULT_MAX_ORDER,
    DeltaMixedSpec,
    DeltaPureSpec,
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
    mixed_delta_matrix,
    pure_delta_matrix,
    quotient_from_dets,
    quotient_ratio,
)
from .polycore import (
    DegreeTooSmall,
    DivisionResult,
    DivisorViews,
    PolyDivError,
    Polynomial,
    ZeroDivisor,
    divisor_views,
    evaluate,
    long_divide,
    monic_reduction,
)
