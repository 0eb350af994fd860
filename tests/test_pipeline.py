"""End-to-end sanity against known distributions: the fitted density should
track the truth to within Monte Carlo resolution, and back-transformed
moments should reproduce the sample statistics."""

import numpy as np
import pytest
from scipy.stats import norm

from gpcquad import (
    cdf_original,
    compute_recurrence,
    default_delta,
    fit_cubic,
    fit_density,
    fit_rational,
    fit_transform,
    gauss_rule,
    integrate,
    moments,
    pdf_original,
    select_points,
)

FITTERS = {"cubic": fit_cubic, "rational": fit_rational}


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_recovers_normal_cdf(variant):
    rng = np.random.default_rng(42)
    values = rng.normal(2.0, 0.5, 200_000)
    model = fit_density(values, m=45, variant=variant)
    grid = np.linspace(0.5, 3.5, 400)
    # Dvoretzky-Kiefer-Wolfowitz scale at this N is ~3e-3
    dev = np.max(np.abs(cdf_original(model, grid) - norm.cdf(grid, 2.0, 0.5)))
    assert dev < 0.01


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_recovers_uniform_pdf(variant):
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 3.0, 200_000)
    model = fit_density(values, m=30, variant=variant)
    interior = np.linspace(-0.8, 2.8, 200)
    np.testing.assert_allclose(pdf_original(model, interior), 0.25, rtol=0.08)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_back_transformed_moments_match_sample_statistics(variant):
    rng = np.random.default_rng(3)
    values = np.concatenate(
        [rng.normal(-1.0, 0.4, 150_000), rng.normal(1.5, 0.8, 150_000)]
    )
    transform, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 45)
    model = FITTERS[variant](data, transform=transform)
    m = moments(model, 2)
    mean = transform.a + transform.b * m[1]
    var = transform.b**2 * (m[2] - m[1] ** 2)
    assert mean == pytest.approx(values.mean(), abs=0.01)
    assert var == pytest.approx(values.var(), rel=0.02)


def test_rule_expectation_matches_sample_mean():
    rng = np.random.default_rng(12)
    values = rng.gamma(3.0, 2.0, 200_000)
    transform, cdf = fit_transform(values, default_delta(values))
    model = fit_cubic(select_points(cdf, 45), transform=transform)
    rec, _ = compute_recurrence(moments(model, 9), 4)
    rule = gauss_rule(rec)
    mean = integrate(rule, lambda x: transform.a + transform.b * x)
    assert mean == pytest.approx(values.mean(), abs=0.05)


def test_fit_density_rejects_unknown_variant():
    values = np.random.default_rng(1).normal(size=2000)
    with pytest.raises(ValueError, match="unknown variant"):
        fit_density(values, variant="cubc")
