"""Matrix balancing toolkit.

Scales a strictly positive matrix to prescribed row and column sums along
three mutually verifying routes: alternating proportional fitting, exact
closed forms for single-row/column and 2x2 shapes, and an exact-rational
Groebner engine that certifies the algebraic degree of the limit entries.

Names are resolved on first use (PEP 562), so ``import matbalance`` loads
no submodule, and the exact route never loads numpy.
"""

import importlib

_EXPORTS = {
    "errors": (
        "DEFAULT_CONSISTENCY_TOL",
        "GaugeFix",
        "InconsistentMarginals",
        "MatrixBalanceError",
        "NonPositiveInput",
        "NotConverged",
        "ResourceLimit",
        "ShapeMismatch",
        "UnitIdeal",
        "default_gauge",
    ),
    "core": (
        "Marginals",
        "PositiveMatrix",
        "ScaledResult",
        "ScalingPair",
        "ValidatedInstance",
        "apply_scaling",
        "max_abs_residual",
        "residuals",
        "transpose_instance",
        "validate_instance",
    ),
    "iterative": (
        "FactorsUnavailable",
        "IterationConfig",
        "NonPositiveLambda",
        "UnrepresentableLimit",
        "extract_factors",
        "gauge_transform",
        "sinkhorn_iterate",
    ),
    "closedform": (
        "NearSingular",
        "NegativeDiscriminant",
        "NonPositiveRoot",
        "QuadraticData",
        "UnsupportedShape",
        "WrongShape",
        "closed_form_1xn",
        "closed_form_2x2",
        "closed_form_2x2_singular",
        "closed_form_dispatch",
        "closed_form_nx1",
        "quadratic_data",
        "r2_roots",
        "solve_r2",
    ),
    "exactalgebra": (
        "BigRational",
        "GroebnerBasis",
        "MissingAssignment",
        "MultivariatePolynomial",
        "NotZeroDimensional",
        "RationalInstance",
        "buchberger",
        "build_scaling_ideal",
        "elimination_degree",
        "normal_form",
        "random_inconsistent_instance",
        "random_rational_instance",
        "scaling_variables",
        "verify_solution_on_variety",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
