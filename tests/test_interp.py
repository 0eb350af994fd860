import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcquad import (
    InvariantViolation,
    MonotoneData,
    PlateauWarning,
    TransformParams,
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
from gpcquad.interp import MODEL_FORMAT_VERSION, _cubic_monomial
from conftest import diagonal_data, random_selected_data

FITTERS = {"cubic": fit_cubic, "rational": fit_rational}


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------


def test_parabolic_slopes_linear_data():
    np.testing.assert_allclose(parabolic_slopes(diagonal_data(3)), [1, 1, 1], rtol=0)


def test_parabolic_slopes_hand_values():
    data = MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.9, 1.0]))
    slopes = parabolic_slopes(data)
    # interior: (s_2 dx_1 + s_1 dx_2)/(x_3 - x_1) = (0.2*0.5 + 1.8*0.5)/1
    assert slopes[1] == pytest.approx(1.0, abs=1e-15)
    # left end: (s_1 (2 dx_1 + dx_2) - s_2 dx_1)/(x_3 - x_1) = 1.8*1.5 - 0.2*0.5
    assert slopes[0] == pytest.approx(2.6, abs=1e-14)


def test_parabolic_slopes_exact_on_quadratics(rng):
    # the three-point formulas reproduce q'(x) exactly for quadratic data
    for _ in range(20):
        x = np.sort(rng.uniform(0.05, 0.95, 8))
        x = np.concatenate(([0.0], x, [1.0]))
        a = rng.uniform(0.1, 2.0)
        q = lambda t: (t + a * t * t) / (1 + a)        # increasing on [0,1], q(1)=1
        qp = lambda t: (1 + 2 * a * t) / (1 + a)
        data = MonotoneData(x=x, y=q(x))
        np.testing.assert_allclose(parabolic_slopes(data), qp(x), rtol=1e-12)


def test_parabolic_slopes_needs_three_points():
    with pytest.raises(InvariantViolation):
        parabolic_slopes(MonotoneData(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0])))


def test_project_slopes_hand_value():
    data = MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.9, 1.0]))
    projected = project_slopes(data, np.array([2.6, 1.0, 0.0]))
    # 3 * min(1.8, 0.2) = 0.6 caps the middle knot
    assert projected[1] == pytest.approx(0.6, abs=1e-15)
    assert projected[0] == pytest.approx(3 * 1.8, abs=1e-14) or projected[0] <= 3 * 1.8


def test_project_slopes_flat_neighbour_and_identity():
    data = MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.0, 1.0]))
    projected = project_slopes(data, np.array([5.0, 5.0, 5.0]))
    assert projected[0] == 0.0 and projected[1] == 0.0  # s_k s_{k-1} = 0 branch
    diag = diagonal_data(4)
    np.testing.assert_array_equal(project_slopes(diag, np.ones(4)), np.ones(4))


def test_geometric_mean_slopes_linear_and_flat():
    np.testing.assert_allclose(geometric_mean_slopes(diagonal_data(5)), np.ones(5))
    data = MonotoneData(
        x=np.array([0.0, 0.3, 0.6, 1.0]), y=np.array([0.0, 0.0, 0.4, 1.0])
    )
    slopes = geometric_mean_slopes(data)
    assert slopes[0] == 0.0  # zero chord with positive exponent
    assert slopes[1] == 0.0  # flat interval on the left: 0^positive
    assert slopes[2] > 0 and slopes[3] > 0


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_linear_reproduction(variant):
    model = FITTERS[variant](diagonal_data(7))
    xs = np.linspace(0, 1, 201)
    np.testing.assert_allclose(cdf_eval(model, xs), xs, atol=1e-14)
    np.testing.assert_allclose(pdf_eval(model, xs[1:-1]), 1.0, atol=1e-13)
    assert cdf_eval(model, 0.3) == pytest.approx(0.3, abs=1e-14)


def test_fit_cubic_linear_coefficients():
    c2, c3, c4 = _cubic_monomial(fit_cubic(diagonal_data(5)))
    np.testing.assert_allclose(c2, 1.0, rtol=0)
    np.testing.assert_allclose(c3, 0.0, atol=0)
    np.testing.assert_allclose(c4, 0.0, atol=0)


def test_fit_cubic_flat_first_interval():
    data = MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.0, 1.0]))
    model = fit_cubic(data)
    np.testing.assert_array_equal([c[0] for c in _cubic_monomial(model)], [0.0, 0.0, 0.0])
    xs = np.linspace(0.0, 0.49, 50)
    np.testing.assert_array_equal(pdf_eval(model, xs), np.zeros(50))
    assert cdf_eval(model, 0.25) == 0.0


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_fit_invariants_on_random_selections(rng, variant):
    for _ in range(10):
        data, transform, _ = random_selected_data(rng)
        model = FITTERS[variant](data, transform=transform)
        report = validate_model(model)
        assert report["hermite_value_max"] <= 1e-12
        assert report["hermite_slope_max"] <= 1e-12
        assert report["c1_jump_max"] <= 1e-12
        # dense-grid physical consistency
        xs = np.linspace(0, 1, 10_001)
        cdf = cdf_eval(model, xs)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert np.all(pdf_eval(model, xs) >= 0.0)
        assert cdf_eval(model, model.x[0]) == 0.0
        assert cdf_eval(model, model.x[-1]) == 1.0


def test_fit_rational_interpolates_knots(rng):
    for _ in range(5):
        data, transform, _ = random_selected_data(rng, atoms=False)
        model = fit_rational(data, transform=transform)
        vals = cdf_eval(model, data.x)
        np.testing.assert_allclose(vals, data.y, atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_cdf_outside_support(variant):
    model = FITTERS[variant](diagonal_data(4))
    assert cdf_eval(model, -0.5) == 0.0
    assert cdf_eval(model, 1.5) == 1.0
    assert pdf_eval(model, -0.5) == 0.0
    assert pdf_eval(model, 1.5) == 0.0


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_cdf_monotone_on_random_pairs(rng, variant):
    data, transform, _ = random_selected_data(rng)
    model = FITTERS[variant](data, transform=transform)
    a = rng.uniform(-0.2, 1.2, 2000)
    b = rng.uniform(-0.2, 1.2, 2000)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert np.all(cdf_eval(model, lo) <= cdf_eval(model, hi) + 1e-15)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_pdf_matches_finite_difference(rng, variant):
    data, transform, _ = random_selected_data(rng, atoms=False, m_range=(8, 25))
    model = FITTERS[variant](data, transform=transform)
    h = 1e-7
    # interior points at least 10h away from every knot
    points = []
    while len(points) < 1000:
        t = rng.uniform(model.x[0] + 1e-3, model.x[-1] - 1e-3)
        if np.min(np.abs(model.x - t)) > 10 * h:
            points.append(t)
    points = np.asarray(points)
    fd = (cdf_eval(model, points + h) - cdf_eval(model, points - h)) / (2 * h)
    np.testing.assert_allclose(pdf_eval(model, points), fd, atol=1e-6)


def test_back_transform_identity(rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_cubic(data, transform=transform)
    xhat = rng.uniform(transform.a, transform.a + transform.b, 500)
    xn = (xhat - transform.a) / transform.b
    np.testing.assert_array_equal(pdf_original(model, xhat), pdf_eval(model, xn) / transform.b)
    np.testing.assert_array_equal(cdf_original(model, xhat), cdf_eval(model, xn))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_inverse_identity_and_endpoints(variant):
    model = FITTERS[variant](diagonal_data(5))
    assert inverse_cdf(model, 0.3) == pytest.approx(0.3, abs=1e-14)
    assert inverse_cdf(model, 0.0) == model.x[0]
    assert inverse_cdf(model, 1.0) == model.x[-1]
    with pytest.raises(ValueError):
        inverse_cdf(model, -0.1)
    with pytest.raises(ValueError):
        inverse_cdf(model, 1.1)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_inverse_round_trip(rng, variant):
    # continuous mixtures: on atom ramps one float step in x moves the CDF
    # by more than the round-trip tolerance
    for _ in range(3):
        data, transform, _ = random_selected_data(rng, atoms=False)
        model = FITTERS[variant](data, transform=transform)
        ys = rng.uniform(0.0, 1.0, 1000)
        ys = ys[~np.isin(ys, model.y[:-1][np.diff(model.y) == 0])]
        xs = inverse_cdf(model, ys)
        assert np.max(np.abs(cdf_eval(model, xs) - ys)) <= 1e-12


def test_inverse_plateau_returns_midpoint():
    data = MonotoneData(
        x=np.array([0.0, 0.2, 0.6, 0.8, 1.0]),
        y=np.array([0.0, 0.5, 0.5, 0.5, 1.0]),
    )
    model = fit_cubic(data)
    with pytest.warns(PlateauWarning):
        mid = inverse_cdf(model, 0.5)
    assert mid == pytest.approx(0.5)  # midpoint of [0.2, 0.8]


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_inverse_array_matches_scalar_calls(rng, variant):
    data, transform, _ = random_selected_data(rng)
    model = FITTERS[variant](data, transform=transform)
    rising = np.diff(model.y) != 0
    levels = np.concatenate(([0.0, 1.0], model.y[1:][rising], model.y[:-1][rising]))
    ys = np.concatenate((rng.uniform(0.0, 1.0, 500), levels))
    scalar = np.array([inverse_cdf(model, float(y)) for y in ys])
    np.testing.assert_array_equal(inverse_cdf(model, ys), scalar)
    grid = inverse_cdf(model, ys.reshape(-1, 1))
    assert grid.shape == (ys.size, 1)
    np.testing.assert_array_equal(grid[:, 0], scalar)


def test_inverse_one_plateau_warning_per_call():
    data = MonotoneData(
        x=np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
        y=np.array([0.0, 0.3, 0.3, 0.7, 0.7, 1.0]),
    )
    model = fit_cubic(data)
    with pytest.warns(PlateauWarning) as caught:
        xs = inverse_cdf(model, np.array([0.3, 0.5, 0.7, 0.3]))
    assert len(caught) == 1
    np.testing.assert_allclose(xs[[0, 2, 3]], [0.3, 0.7, 0.3])
    assert 0.4 < xs[1] < 0.6


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
def test_inverse_rejects_any_bad_target(bad):
    model = fit_cubic(diagonal_data(5))
    with pytest.raises(ValueError):
        inverse_cdf(model, np.array([0.2, bad, 0.7]))


def test_draw_samples_deterministic_and_in_range(rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_rational(data, transform=transform)
    a = draw_samples(model, 256, seed=9)
    b = draw_samples(model, 256, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= transform.a and a.max() <= transform.a + transform.b


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_model_json_round_trip(tmp_path, rng, variant):
    data, transform, _ = random_selected_data(rng)
    model = FITTERS[variant](data, transform=transform)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.variant == model.variant
    for field in ("x", "y", "slopes"):
        np.testing.assert_array_equal(getattr(again, field), getattr(model, field))
    assert again.transform == model.transform
    xs = rng.uniform(-0.1, 1.1, 300)
    np.testing.assert_array_equal(cdf_eval(again, xs), cdf_eval(model, xs))
    np.testing.assert_array_equal(pdf_eval(again, xs), pdf_eval(model, xs))


def test_load_rejects_bad_version_and_tampering(tmp_path, rng):
    data, transform, _ = random_selected_data(rng)
    model = fit_cubic(data, transform=transform)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation):
        load_model(bad)
    doc["format_version"] = MODEL_FORMAT_VERSION
    doc["slopes"][1] = -3.0  # negative slope must be caught on load
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation):
        load_model(bad)


# ---------------------------------------------------------------------------
# property-based fitting invariants
# ---------------------------------------------------------------------------


@st.composite
def monotone_datasets(draw):
    n = draw(st.integers(4, 20))
    interior = draw(
        st.lists(
            st.floats(0.01, 0.99, allow_nan=False),
            min_size=n - 2,
            max_size=n - 2,
            unique=True,
        )
    )
    x = np.array(sorted([0.0] + interior + [1.0]))
    increments = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 1.0, allow_nan=False)),
                min_size=n - 1,
                max_size=n - 1,
            )
        )
    )
    if increments.sum() == 0.0:
        increments[-1] = 1.0
    y = np.concatenate(([0.0], np.cumsum(increments)))
    y /= y[-1]
    y[-1] = 1.0
    return MonotoneData(x=x, y=y)


@given(data=monotone_datasets(), variant=st.sampled_from(["cubic", "rational"]))
@settings(max_examples=120, deadline=None)
def test_fit_properties(data, variant):
    data.validate()
    model = FITTERS[variant](data)  # validates Hermite/C1/monotonicity internally
    xs = np.linspace(0, 1, 1500)
    cdf = cdf_eval(model, xs)
    assert np.all(np.diff(cdf) >= -1e-15)
    assert np.all(pdf_eval(model, xs) >= 0.0)
    assert cdf_eval(model, 0.0) == 0.0 and cdf_eval(model, 1.0) == 1.0
