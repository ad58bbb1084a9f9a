"""Matrix balancing toolkit.

Scales a strictly positive matrix to prescribed row and column sums along
three mutually verifying routes: alternating proportional fitting, exact
closed forms for single-row/column and 2x2 shapes, and an exact-rational
Groebner engine that certifies the algebraic degree of the limit entries.
"""

from .core import (
    DEFAULT_CONSISTENCY_TOL,
    GaugeFix,
    InconsistentMarginals,
    Marginals,
    MatrixBalanceError,
    NonPositiveInput,
    PositiveMatrix,
    ScaledResult,
    ScalingPair,
    ShapeMismatch,
    ValidatedInstance,
    apply_scaling,
    default_gauge,
    max_abs_residual,
    residuals,
    transpose_instance,
    validate_instance,
)
from .iterative import (
    FactorsUnavailable,
    IterationConfig,
    NonPositiveLambda,
    NotConverged,
    extract_factors,
    gauge_transform,
    sinkhorn_iterate,
)
from .closedform import (
    NearSingular,
    NegativeDiscriminant,
    NonPositiveRoot,
    QuadraticData,
    SINGULARITY_THRESHOLD,
    UnsupportedShape,
    WrongShape,
    closed_form_1xn,
    closed_form_2x2,
    closed_form_2x2_singular,
    closed_form_dispatch,
    closed_form_nx1,
    quadratic_data,
    r2_roots,
    solve_r2,
)
from .exactalgebra import (
    BigRational,
    GroebnerBasis,
    MissingAssignment,
    MultivariatePolynomial,
    NotZeroDimensional,
    RationalInstance,
    ResourceLimit,
    UnitIdeal,
    buchberger,
    build_scaling_ideal,
    elimination_degree,
    normal_form,
    random_inconsistent_instance,
    random_rational_instance,
    scaling_variables,
    verify_solution_on_variety,
)

__version__ = "0.1.0"
