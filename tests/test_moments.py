import dataclasses

import numpy as np
import pytest

from gpcquad import (
    MOMENT_CAP,
    SYNTHETIC_MODEL,
    MonotoneData,
    default_delta,
    fit_cubic,
    fit_rational,
    fit_transform,
    moments,
    moments_cubic,
    moments_rational,
    numeric_moment_oracle,
    parse_model,
    sample,
    select_points,
)
from gpcquad.moments import _SERIES_THRESHOLD
from conftest import diagonal_data, random_selected_data


def test_uniform_cubic_moments_closed_form():
    model = fit_cubic(diagonal_data(4))
    got = moments_cubic(model, 12)
    want = 1.0 / (np.arange(13) + 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert got[1] == pytest.approx(0.5) and got[2] == pytest.approx(1 / 3)


def test_uniform_rational_moments_closed_form():
    model = fit_rational(diagonal_data(4))
    got = moments_rational(model, 10)
    np.testing.assert_allclose(got, 1.0 / (np.arange(11) + 1.0), rtol=1e-13)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_total_mass_is_one(rng, variant):
    fitter = fit_cubic if variant == "cubic" else fit_rational
    for _ in range(8):
        data, transform, _ = random_selected_data(rng)
        model = fitter(data, transform=transform)
        assert abs(moments(model, 0)[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("variant,kmax,tol", [("cubic", 12, 1e-9), ("rational", 10, 1e-8)])
def test_analytic_matches_oracle(rng, variant, kmax, tol):
    fitter = fit_cubic if variant == "cubic" else fit_rational
    for _ in range(6):
        data, transform, _ = random_selected_data(rng, size=1200, m_range=(5, 25))
        model = fitter(data, transform=transform)
        got = moments(model, kmax)
        for k in range(kmax + 1):
            oracle = numeric_moment_oracle(model, k)
            assert abs(got[k] - oracle) <= tol * max(1.0, abs(got[k]))


def test_moment_decay_and_jensen(rng):
    for variant, fitter in (("cubic", fit_cubic), ("rational", fit_rational)):
        data, transform, _ = random_selected_data(rng)
        model = fitter(data, transform=transform)
        m = moments(model, 12 if variant == "cubic" else 10)
        assert np.all(np.diff(m) <= 1e-12)          # support inside (0,1)
        assert m[2] >= m[1] ** 2 - 1e-12            # Jensen


def test_oracle_uniform_values():
    model = fit_cubic(diagonal_data(4))
    assert numeric_moment_oracle(model, 3) == pytest.approx(0.25, abs=1e-12)
    assert numeric_moment_oracle(model, 0) == pytest.approx(1.0, abs=1e-12)


def test_variant_mismatch_and_cap():
    cubic = fit_cubic(diagonal_data(4))
    rational = fit_rational(diagonal_data(4))
    with pytest.raises(ValueError):
        moments_cubic(rational, 4)
    with pytest.raises(ValueError):
        moments_rational(cubic, 4)
    with pytest.raises(ValueError):
        moments(cubic, MOMENT_CAP + 1)
    with pytest.raises(ValueError):
        moments(cubic, -1)


def test_moments_with_plateau(rng):
    data = MonotoneData(
        x=np.array([0.0, 0.2, 0.5, 0.7, 1.0]),
        y=np.array([0.0, 0.4, 0.4, 0.4, 1.0]),
    )
    for fitter in (fit_cubic, fit_rational):
        model = fitter(data)
        got = moments(model, 6)
        assert abs(got[0] - 1.0) <= 1e-14
        for k in range(7):
            oracle = numeric_moment_oracle(model, k)
            assert abs(got[k] - oracle) <= 1e-10 * max(1.0, abs(got[k]))


def test_moments_atom_heavy_corpus(rng):
    # steep near-atom ramps exercise the series/division split and the
    # boundary-layer handling in both the analytic path and the oracle
    for _ in range(4):
        data, transform, _ = random_selected_data(rng, atoms=True)
        for variant, fitter, kmax, tol in (
            ("cubic", fit_cubic, 12, 1e-9),
            ("rational", fit_rational, 10, 1e-8),
        ):
            model = fitter(data, transform=transform)
            got = moments(model, kmax)
            for k in (0, 1, kmax // 2, kmax):
                oracle = numeric_moment_oracle(model, k)
                assert abs(got[k] - oracle) <= tol * max(1.0, abs(got[k]))


def series_division_counts(model):
    """Rising rational pieces integrated by the series / by long division."""
    rising = np.diff(model.y) != 0
    s = np.diff(model.y)[rising] / np.diff(model.x)[rising]
    v = (model.slopes[:-1][rising] + model.slopes[1:][rising]) / s
    series = np.abs(2.0 - v) / (2.0 + v) <= _SERIES_THRESHOLD
    return int(series.sum()), int((~series).sum())


def test_synthetic_fits_match_oracle_at_cap():
    values = sample(parse_model(SYNTHETIC_MODEL), 20_000, seed=3).values
    transform, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 45)
    for fitter in (fit_cubic, fit_rational):
        model = fitter(data, transform=transform)
        got = moments(model, 21)
        oracle = np.array([numeric_moment_oracle(model, k) for k in range(22)])
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)
    n_series, n_division = series_division_counts(model)
    assert n_series > 0 and n_division > 0


def test_moment_prefixes_are_bitwise_consistent(rng):
    for _ in range(4):
        data, transform, _ = random_selected_data(rng, atoms=True)
        for fitter in (fit_cubic, fit_rational):
            model = fitter(data, transform=transform)
            full = moments(model, 21)
            for k in range(22):
                assert moments(model, k).tobytes() == full[: k + 1].tobytes()


def test_rational_all_series_and_all_division():
    uniform = fit_rational(diagonal_data(6))
    assert series_division_counts(uniform) == (5, 0)
    np.testing.assert_allclose(moments(uniform, 21), 1.0 / (np.arange(22) + 1.0), rtol=1e-13)
    # one rising piece between plateaus: zero knot slopes, division only
    data = MonotoneData(x=np.array([0.0, 0.3, 0.6, 1.0]), y=np.array([0.0, 0.0, 1.0, 1.0]))
    single = fit_rational(data)
    assert series_division_counts(single) == (0, 1)
    for model in (single, fit_cubic(data)):
        got = moments(model, 21)
        oracle = np.array([numeric_moment_oracle(model, k) for k in range(22)])
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)


def test_unknown_variant_is_named():
    model = dataclasses.replace(fit_cubic(diagonal_data(4)), variant="cubc")
    with pytest.raises(ValueError, match="unknown variant 'cubc'"):
        moments(model, 4)
