"""Guaranteed bounds on integrals of monotone functions over [0, 1].

For positive weights a_1..a_n summing to 1, with running totals S_i, and a
decreasing integrable g, the cumulative-weight sum

    T_n(g) = sum_i a_i * g(S_i)

never exceeds the integral of g over [0, 1].  The package computes the
sum, the matching over-estimate from left endpoints, the Abel (discrete
integration by parts) form, the gap and its mesh bound, the
change-of-variables identity behind the probabilistic reading, and the
majorization/Karamata comparison that shares the same cumulative-sum
philosophy.  Every quantity is cross-checked by at least two independent
routes.
"""

from .bounds import (
    BoundReport,
    abel_sum,
    abel_terms,
    bound_report,
    gap_bound,
    refinement_chain,
    riemann_sum_left,
    riemann_sum_right,
)
from .errors import (
    DomainViolation,
    EmptyInput,
    InvalidArgument,
    LengthMismatch,
    MonoboundError,
    NonFiniteValue,
    NonMonotoneFunction,
    NonPositiveWeight,
    NotConvex,
    NotMajorized,
    NotNormalized,
    PointOutsideInterval,
    SumOutOfTolerance,
    ToleranceNotReached,
    TooLarge,
    WeightBelowResolution,
    WeightUnderflow,
)
from .functions import (
    CONSTANT,
    DECREASING,
    INCREASING,
    NON_MONOTONE,
    MonotoneFunction,
    constant,
    exponential,
    linear,
    logarithmic,
    power_complement,
    quadrature_integral,
    reciprocal,
    tabulated,
    trigonometric,
)
from .jsonio import render_json
from .majorization import (
    KaramataReport,
    MajorizationVerdict,
    RealVector,
    generate_majorized_pair,
    is_majorized,
    karamata_check,
)
from .partitions import (
    CumulativePartition,
    WeightVector,
    bisect_all,
    cumulative,
    from_weights,
    uniform_weights,
)
from .quadrature import QuadratureResult, adaptive_quadrature
from .transform import (
    Density,
    TransformReport,
    pit_identity_check,
    polynomial_density,
    tabulated_density,
    triangular_density,
    uniform_density,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CONSTANT",
    "CumulativePartition",
    "DECREASING",
    "Density",
    "DomainViolation",
    "EmptyInput",
    "INCREASING",
    "InvalidArgument",
    "KaramataReport",
    "LengthMismatch",
    "MajorizationVerdict",
    "MonoboundError",
    "MonotoneFunction",
    "NON_MONOTONE",
    "NonFiniteValue",
    "NonMonotoneFunction",
    "NonPositiveWeight",
    "NotConvex",
    "NotMajorized",
    "NotNormalized",
    "PointOutsideInterval",
    "QuadratureResult",
    "RealVector",
    "SumOutOfTolerance",
    "ToleranceNotReached",
    "TooLarge",
    "TransformReport",
    "WeightBelowResolution",
    "WeightUnderflow",
    "WeightVector",
    "abel_sum",
    "abel_terms",
    "adaptive_quadrature",
    "bisect_all",
    "bound_report",
    "constant",
    "cumulative",
    "exponential",
    "from_weights",
    "gap_bound",
    "generate_majorized_pair",
    "is_majorized",
    "karamata_check",
    "linear",
    "logarithmic",
    "pit_identity_check",
    "polynomial_density",
    "power_complement",
    "quadrature_integral",
    "reciprocal",
    "refinement_chain",
    "render_json",
    "riemann_sum_left",
    "riemann_sum_right",
    "tabulated",
    "tabulated_density",
    "triangular_density",
    "trigonometric",
    "uniform_density",
    "uniform_weights",
]
