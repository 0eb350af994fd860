"""Closed-form density estimation from surrogate-model samples, with
orthonormal polynomial bases and Gauss quadrature rules derived from the
fitted density."""

from .ecdf import (
    EmpiricalCDF,
    MonotoneData,
    TransformParams,
    default_delta,
    ecdf_eval,
    fit_transform,
    load_monotone_csv,
    save_monotone_csv,
    select_points,
)
from .errors import (
    DegenerateSamplesError,
    EigenConvergenceError,
    EvaluationError,
    GpcquadError,
    InvariantViolation,
    KappaNotPositiveError,
    ModelSyntaxError,
    NumericalError,
    SelectionError,
)
from .interp import (
    DensityModel,
    PlateauWarning,
    cdf_eval,
    cdf_original,
    draw_samples,
    fit_cubic,
    fit_rational,
    geometric_mean_slopes,
    inverse_cdf,
    load_model,
    parabolic_slopes,
    pdf_eval,
    pdf_original,
    project_slopes,
    save_model,
    validate_model,
)
from .moments import (
    MOMENT_CAP,
    moments,
    moments_cubic,
    moments_rational,
    numeric_moment_oracle,
)
from .orthopoly import (
    DEGREE_CAP,
    OrthonormalBasis,
    RecurrenceCoeffs,
    compute_recurrence,
    eval_basis,
    load_basis,
    save_basis,
)
from .quadrature import (
    JacobiMatrix,
    QuadratureRule,
    build_jacobi,
    gauss_rule,
    integrate,
    orthonormality_error,
    save_rule,
    save_rule_csv,
    tridiag_eigen,
)
from .surrogate import (
    SYNTHETIC_MODEL,
    Distribution,
    SampleSet,
    SurrogateModel,
    evaluate,
    load_samples,
    parse_model,
    print_model,
    sample,
    save_samples,
)

__version__ = "0.1.0"


def fit_density(values, m: int = 45, delta: float | None = None, variant: str = "cubic"):
    """Convenience wrapper: samples -> transform -> point selection -> fit."""
    fitters = {"cubic": fit_cubic, "rational": fit_rational}
    if variant not in fitters:
        raise ValueError(f"unknown variant {variant!r}; expected 'cubic' or 'rational'")
    transform, cdf = fit_transform(values, default_delta(values) if delta is None else delta)
    return fitters[variant](select_points(cdf, m), transform=transform)
