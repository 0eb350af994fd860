import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcquad import (
    SYNTHETIC_MODEL,
    DegenerateSamplesError,
    InvariantViolation,
    MonotoneData,
    SelectionError,
    default_delta,
    ecdf_eval,
    fit_transform,
    load_monotone_csv,
    parse_model,
    sample,
    save_monotone_csv,
    select_points,
)
from gpcquad.ecdf import _distinct_steps
from conftest import mixture_values


def test_fit_transform_three_samples():
    params, cdf = fit_transform(np.array([1.0, 2.0, 3.0]), delta=0.1)
    assert params.a == pytest.approx(0.9)
    assert params.b == pytest.approx(2.2)
    np.testing.assert_allclose(cdf.sorted_values, [0.1 / 2.2, 0.5, 2.1 / 2.2], rtol=1e-15)


def test_fit_transform_rejects_degenerate_and_bad_delta():
    with pytest.raises(DegenerateSamplesError):
        fit_transform(np.array([5.0, 5.0, 5.0]), delta=0.1)
    with pytest.raises(DegenerateSamplesError):
        fit_transform(np.array([5.0]), delta=0.1)
    with pytest.raises(DegenerateSamplesError):
        fit_transform(np.array([1.0, 2.0]), delta=0.0)


def test_normalized_extremes_are_delta_over_b(rng):
    values = rng.normal(3.0, 2.5, 4000)
    delta = 0.02
    params, cdf = fit_transform(values, delta)
    # algebra on the definitions: min -> delta/b, max -> 1 - delta/b
    assert cdf.sorted_values[0] == pytest.approx(delta / params.b, rel=1e-12)
    assert cdf.sorted_values[-1] == pytest.approx(1 - delta / params.b, rel=1e-12)
    assert cdf.sorted_values[0] > 0 and cdf.sorted_values[-1] < 1


def test_round_trip_denormalize(rng):
    values = rng.uniform(-7, 13, 1000)
    params, cdf = fit_transform(values, default_delta(values))
    back = params.denormalize(cdf.sorted_values)
    # values near zero only carry range-scale ulps through the round trip
    np.testing.assert_allclose(back, np.sort(values), rtol=1e-14, atol=1e-14 * params.b)


def test_ecdf_eval_counting():
    from gpcquad import EmpiricalCDF

    cdf = EmpiricalCDF(sorted_values=np.array([0.1, 0.5, 0.9]), count=3)
    assert ecdf_eval(cdf, 0.5) == pytest.approx(2 / 3)
    assert ecdf_eval(cdf, -1.0) == 0.0
    assert ecdf_eval(cdf, 2.0) == 1.0
    assert ecdf_eval(cdf, 0.9) == 1.0  # right continuity: count <= x
    assert ecdf_eval(cdf, 0.0999) == 0.0


def test_ecdf_eval_distinct_value_levels(rng):
    values = rng.normal(size=50)
    _, cdf = fit_transform(values, 0.01)
    for k, xv in enumerate(cdf.sorted_values, start=1):
        assert ecdf_eval(cdf, xv) == pytest.approx(k / 50)


def test_distinct_steps_match_np_unique(rng):
    for _ in range(20):
        values = mixture_values(rng)  # point masses give repeated values
        _, cdf = fit_transform(values, default_delta(values))
        ux, counts = np.unique(cdf.sorted_values, return_counts=True)
        got_x, got_y = _distinct_steps(cdf)
        np.testing.assert_array_equal(got_x, ux)
        np.testing.assert_array_equal(got_y, np.cumsum(counts) / cdf.count)


def test_select_points_diagonal_m4(rng):
    # near-diagonal ECDF: arc length ~ sqrt(2), expect about ceil(4 sqrt 2)+1
    values = rng.uniform(0.0, 1.0, 20_000)
    _, cdf = fit_transform(values, 1e-4)
    data = select_points(cdf, 4)
    assert 6 <= data.n <= 8
    assert np.max(np.diff(data.x)) <= 0.25 + 1e-12
    assert np.max(np.diff(data.y)) <= 0.25 + 1e-12


def test_select_points_synthetic_point_count():
    model = parse_model(SYNTHETIC_MODEL)
    values = sample(model, 1_000_000, seed=1).values
    _, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 45)
    assert 64 <= data.n <= 84
    data.validate(45)


def test_select_points_m_guard(rng):
    _, cdf = fit_transform(rng.normal(size=100), 0.01)
    with pytest.raises(SelectionError):
        select_points(cdf, 1)


def test_select_points_resolution_error():
    # a fat atom one ulp away from its neighbour cannot honour the y-step
    # bound with strictly increasing abscissae
    values = np.concatenate(
        [np.zeros(1), np.full(500, 1.0), np.full(500, 1.0 + 2**-52)]
    )
    _, cdf = fit_transform(values, 1e-4)
    with pytest.raises(SelectionError):
        select_points(cdf, 200)


def test_monotone_data_validation():
    with pytest.raises(InvariantViolation):
        MonotoneData(x=np.array([0.0, 1.0]), y=np.array([0.0, 0.5])).validate()
    with pytest.raises(InvariantViolation):
        MonotoneData(x=np.array([0.0, 0.5, 0.5, 1.0]), y=np.array([0, 0.1, 0.2, 1.0])).validate()
    with pytest.raises(InvariantViolation):
        MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.8, 0.5])).validate()
    MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.5, 1.0])).validate(2)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 200))
@settings(max_examples=80, deadline=None)
def test_select_points_invariants_property(seed, m):
    rng = np.random.default_rng(seed)
    values = mixture_values(rng, size=400)
    _, cdf = fit_transform(values, default_delta(values))
    try:
        data = select_points(cdf, m)
    except SelectionError:
        return  # legitimate resolution failure
    data.validate(m)


def test_refinement_never_decreases_n(rng):
    for _ in range(5):
        values = mixture_values(rng, size=1500)
        _, cdf = fit_transform(values, default_delta(values))
        counts = [select_points(cdf, m).n for m in (2, 3, 5, 8, 13, 21, 34, 55, 89)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_monotone_csv_round_trip(tmp_path, rng):
    values = mixture_values(rng, size=800)
    _, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 10)
    path = tmp_path / "points.csv"
    save_monotone_csv(data, path)
    again = load_monotone_csv(path)
    assert np.array_equal(again.x, data.x)
    assert np.array_equal(again.y, data.y)
