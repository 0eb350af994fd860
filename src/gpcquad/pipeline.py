"""The chain from samples to Gauss rules, written once: normalize and select
points, fit a closed-form density, take its moments, build the orthonormal
basis and the Gauss rule. Each stage function stays public in its own module.

`rules_from_model` is the one place that goes from a fitted density to its
rules. It takes the moments once, for the highest degree asked for, and each
lower degree reads a prefix of them: `moments(model, k)` equals
`moments(model, K)[:k + 1]` bit for bit for k <= K, so every degree's rule
has the bits a chain run for that degree alone would give. A degree that
fails leaves the others standing. `rule_from_model` is its one-degree case.

Stage functions are imported by name and looked up when called, so a caller
that replaces one of these module attributes sees every call made here.
"""

from __future__ import annotations

from .ecdf import default_delta, fit_transform, select_points
from .errors import GpcquadError, NumericalError
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


def _moments_for(model, degrees):
    """Check every degree, then take M_0..M_{2 max(degrees) + 1}: degree d
    reads its M_0..M_{2d + 1} as a prefix of these."""
    if not degrees:
        raise ValueError("no degree given; expected at least one")
    for degree in degrees:
        check_degree(degree)
    return moments(model, 2 * max(degrees) + 1)


def basis_from_model(model, degree: int):
    """Moments M_0..M_{2 degree + 1} of a fitted density, then the recurrence
    and orthonormal basis up to `degree`. Returns (moments, rec, basis)."""
    mom = _moments_for(model, (degree,))
    rec, basis = compute_recurrence(mom, degree)
    return mom, rec, basis


def rules_from_model(model, degrees) -> dict:
    """The (d + 1)-point Gauss rule of a fitted density for each degree d in
    `degrees`, from one `moments` call at the highest degree.

    Returns {d: outcome} in the order given. An outcome is either the tuple
    (moments M_0..M_{2d + 1}, rec, basis, rule, eps), with eps the rule's
    orthonormality error, or the `GpcquadError` that stopped degree d; an
    error in `moments` stops every degree. An empty `degrees`, or a degree
    that is not an integer or lies outside [0, DEGREE_CAP], raises
    `ValueError` before any moment is taken.

    A rule with a node outside the density's support [x_0, x_n] stops its
    degree with `NumericalError`: Gauss nodes of a density lie inside its
    support, so such a rule comes from moments too ill-conditioned for the
    degree.
    """
    degrees = tuple(degrees)
    try:
        mom = _moments_for(model, degrees)
    except GpcquadError as exc:
        return dict.fromkeys(degrees, exc)
    lo, hi = model.x[0], model.x[-1]
    out = {}
    for degree in degrees:
        try:
            prefix = mom[: 2 * degree + 2]
            rec, basis = compute_recurrence(prefix, degree)
            rule = gauss_rule(rec)
            outside = (rule.nodes < lo) | (rule.nodes > hi)
            if outside.any():
                node = rule.nodes[outside.argmax()]
                raise NumericalError(
                    f"degree-{degree} Gauss node {node:.6g} lies outside the density's "
                    f"support [{lo:.6g}, {hi:.6g}] (unit coordinates); the moments are "
                    f"too ill-conditioned for this degree"
                )
            out[degree] = (prefix, rec, basis, rule, orthonormality_error(basis, rule))
        except GpcquadError as exc:
            out[degree] = exc
    return out


def rule_from_model(model, degree: int):
    """The one-degree case of `rules_from_model`: returns (moments, rec,
    basis, rule, eps), or raises the error that stopped the degree."""
    outcome = rules_from_model(model, (degree,))[degree]
    if isinstance(outcome, GpcquadError):
        raise outcome
    return outcome
