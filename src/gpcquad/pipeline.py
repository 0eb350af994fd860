"""The chain from samples to a Gauss rule, written once: normalize and select
points, fit a closed-form density, take its moments, build the orthonormal
basis and the Gauss rule. Each stage function stays public in its own module.

Stage functions are imported by name and looked up when called, so a caller
that replaces one of these module attributes sees every call made here.
"""

from __future__ import annotations

from .ecdf import default_delta, fit_transform, select_points
from .errors import NumericalError
from .interp import fit_cubic, fit_rational
from .moments import moments
from .orthopoly import check_degree, compute_recurrence
from .quadrature import gauss_rule, orthonormality_error

VARIANTS = ("cubic", "rational")


def select_from_samples(values, m: int, delta: float | None = None):
    """Normalize the samples (margin `default_delta` unless given) and select
    interpolation points off their ECDF. Returns (transform, points)."""
    if delta is None:
        delta = default_delta(values)
    transform, cdf = fit_transform(values, delta)
    return transform, select_points(cdf, m)


def fit_variant(points, variant: str, transform=None):
    """Fit the named variant, "cubic" or "rational", through the points."""
    if variant == "cubic":
        return fit_cubic(points, transform=transform)
    if variant == "rational":
        return fit_rational(points, transform=transform)
    raise ValueError(f"unknown variant {variant!r}; expected 'cubic' or 'rational'")


def fit_density(values, m: int = 45, delta: float | None = None, variant: str = "cubic"):
    """Convenience wrapper: samples -> transform -> point selection -> fit."""
    transform, points = select_from_samples(values, m, delta)
    return fit_variant(points, variant, transform)


def basis_from_model(model, degree: int):
    """Moments M_0..M_{2 degree + 1} of a fitted density, then the recurrence
    and orthonormal basis up to `degree`. Returns (moments, rec, basis)."""
    check_degree(degree)
    mom = moments(model, 2 * degree + 1)
    rec, basis = compute_recurrence(mom, degree)
    return mom, rec, basis


def rule_from_model(model, degree: int):
    """`basis_from_model` plus the (degree + 1)-point Gauss rule and its
    orthonormality error. Returns (moments, rec, basis, rule, eps).

    Raises `NumericalError` for a rule with a node outside the density's
    support [x_0, x_n]: Gauss nodes of a density lie inside its support, so
    such a rule comes from moments too ill-conditioned for the degree.
    """
    mom, rec, basis = basis_from_model(model, degree)
    rule = gauss_rule(rec)
    lo, hi = model.x[0], model.x[-1]
    outside = (rule.nodes < lo) | (rule.nodes > hi)
    if outside.any():
        node = rule.nodes[outside.argmax()]
        raise NumericalError(
            f"degree-{degree} Gauss node {node:.6g} lies outside the density's "
            f"support [{lo:.6g}, {hi:.6g}] (unit coordinates); the moments are "
            f"too ill-conditioned for this degree"
        )
    return mom, rec, basis, rule, orthonormality_error(basis, rule)
