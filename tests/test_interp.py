import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcquad import (
    SYNTHETIC_MODEL,
    DensityModel,
    InvariantViolation,
    MonotoneData,
    PlateauWarning,
    TransformParams,
    cdf_eval,
    cdf_original,
    default_delta,
    draw_samples,
    fit_cubic,
    fit_density,
    fit_rational,
    fit_transform,
    geometric_mean_slopes,
    inverse_cdf,
    load_model,
    parabolic_slopes,
    parse_model,
    pdf_eval,
    pdf_original,
    project_slopes,
    sample,
    save_model,
    select_points,
    validate_model,
)
from gpcquad import interp
from gpcquad.interp import MODEL_FORMAT_VERSION, _cubic_monomial, model_from_dict, model_to_dict
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


@pytest.mark.parametrize(
    "estimate",
    [parabolic_slopes, geometric_mean_slopes, lambda data: project_slopes(data, np.ones(5))],
    ids=["parabolic", "geometric-mean", "project"],
)
def test_slopes_reject_repeated_abscissae(estimate):
    # formerly RuntimeWarnings and slopes of nan or 0
    data = MonotoneData(x=np.array([0.0, 0.5, 0.5, 0.5, 1.0]), y=np.linspace(0.0, 1.0, 5))
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        estimate(data)


def reference_geometric_mean_slopes(data):
    """The slope loop as it stood: one knot at a time on np.float64 scalars."""
    n = data.n
    x, y = data.x, data.y
    s = np.diff(y) / np.diff(x)

    def power_pair(b1, e1, b2, e2):
        if b1 <= 0.0 or b2 <= 0.0:
            return 0.0
        try:
            v = float(b1) ** float(e1) * float(b2) ** float(e2)
        except OverflowError:
            return 0.0
        return v if math.isfinite(v) and v > 0.0 else 0.0

    d = np.empty(n)
    span = x[2:] - x[:-2]
    for k in range(1, n - 1):
        d[k] = power_pair(
            s[k - 1], (x[k + 1] - x[k]) / span[k - 1], s[k], (x[k] - x[k - 1]) / span[k - 1]
        )
    s31 = (y[2] - y[0]) / (x[2] - x[0])
    d[0] = power_pair(
        s[0], (x[2] - x[0]) / (x[2] - x[1]), s31, (x[0] - x[1]) / (x[2] - x[1])
    )
    snn2 = (y[-1] - y[-3]) / (x[-1] - x[-3])
    d[-1] = power_pair(
        s[-1], (x[-1] - x[-3]) / (x[-2] - x[-3]), snn2, (x[-2] - x[-1]) / (x[-2] - x[-3])
    )
    return d


def test_geometric_mean_slopes_match_per_knot_reference(rng):
    corpus = [random_selected_data(rng, m_range=(2, 201))[0] for _ in range(40)]
    corpus += [
        # zero chords: flat stretches inside and at both ends
        MonotoneData(x=np.linspace(0.0, 1.0, 7), y=np.array([0, 0, 0.3, 0.3, 0.3, 1, 1.0])),
        MonotoneData(x=np.array([0.0, 0.2, 0.5, 1.0]), y=np.array([0.0, 0.0, 0.0, 1.0])),
        # knot gaps of 1e-300: chord slopes near the top of the float range
        MonotoneData(
            x=np.array([0.0, 1e-300, 2e-300, 0.5, 1.0]), y=np.array([0.0, 0.1, 0.2, 0.6, 1.0])
        ),
        MonotoneData(
            x=np.array([0.0, 0.25, 0.25 + 2**-54, 0.75, 1.0]),
            y=np.array([0.0, 0.2, 0.7, 0.8, 1.0]),
        ),
        diagonal_data(3),
    ]
    for data in corpus:
        data.validate()
        want = reference_geometric_mean_slopes(data)
        assert geometric_mean_slopes(data).tobytes() == want.tobytes()


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


# The inversion as it stood before cubic pieces started from the converged
# root of their own polynomial, kept as the reference for rational draws,
# which must match it bit for bit.
def reference_newton_start(model, k, target):
    x0 = model.x[k]
    h = model.x[k + 1] - x0
    y0, y1 = model.y[k], model.y[k + 1]
    if model.variant == "cubic":
        return x0 + h * (target - y0) / (y1 - y0)
    d0, d1 = model.slopes[k], model.slopes[k + 1]
    s = (y1 - y0) / h
    w = (y1 * d0 + y0 * d1) / s
    v = (d0 + d1) / s
    r0 = y0 - target
    rm = w - target * v
    r1 = y1 - target
    a = r0 - rm + r1
    b = rm - 2.0 * r0
    c = r0
    theta = np.full(target.shape, 0.5)
    linear = (a == 0.0) & (b != 0.0)
    theta[linear] = -c[linear] / b[linear]
    disc = b * b - 4.0 * a * c
    quad = np.flatnonzero((a != 0.0) & (disc >= 0.0))
    q = -0.5 * (b[quad] + np.copysign(np.sqrt(disc[quad]), b[quad]))

    def on_piece(th):
        return (-1e-12 <= th) & (th <= 1.0 + 1e-12)

    root = q / a[quad]
    other = ~on_piece(root)
    root[other] = c[quad][other] / q[other]
    theta[quad] = np.where(on_piece(root), root, 0.5)
    return x0 + np.minimum(np.maximum(theta, 0.0), 1.0) * h


def reference_polish(model, k, target, x):
    lo, hi = model.x[k], model.x[k + 1]
    x = np.minimum(np.maximum(x, lo), hi)
    todo = np.arange(len(x))
    for _ in range(100):
        xa = x[todo]
        val = interp._piece_cdf(model, k[todo], xa) - target[todo]
        open_ = np.abs(val) > 1e-13
        todo, xa, val = todo[open_], xa[open_], val[open_]
        if not todo.size:
            break
        above = val > 0.0
        hi[todo[above]] = xa[above]
        lo[todo[~above]] = xa[~above]
        der = interp._piece_pdf(model, k[todo], xa)
        lo_t, hi_t = lo[todo], hi[todo]
        nxt = 0.5 * (lo_t + hi_t)
        slope = np.flatnonzero(der > 0.0)
        newton = xa[slope] - val[slope] / der[slope]
        inside = (lo_t[slope] < newton) & (newton < hi_t[slope])
        nxt[slope[inside]] = newton[inside]
        x[todo] = nxt
        todo = todo[hi_t - lo_t > 4e-16 * np.maximum(1.0, np.abs(lo_t))]
    return x


def reference_inverse_cdf(model, y):
    shape = np.shape(y)
    u = np.asarray(y, dtype=float).ravel()
    xk, yk = model.x, model.y
    out = np.empty(u.shape)
    low = u <= yk[0]
    high = u >= yk[-1]
    out[low] = xk[0]
    out[high] = xk[-1]
    j = np.searchsorted(yk, u, side="right") - 1
    knot = ~(low | high) & (yk[j] == u)
    out[knot] = xk[j[knot]]
    first = np.searchsorted(yk, u, side="left")
    plateau = np.flatnonzero(knot & (first < j))
    if plateau.size:
        out[plateau] = 0.5 * (xk[first[plateau]] + xk[j[plateau]])
        p = plateau[0]
        warnings.warn(
            f"{plateau.size} target(s) lie on plateaus, e.g. {u[p]} on "
            f"[{xk[first[p]]}, {xk[j[p]]}]; returning plateau midpoints",
            PlateauWarning,
        )
    inner = np.flatnonzero(~(low | high | knot))
    k, target = j[inner], u[inner]
    out[inner] = reference_polish(model, k, target, reference_newton_start(model, k, target))
    return float(out[0]) if not shape else out.reshape(shape)


@pytest.fixture(scope="module")
def synthetic_fits():
    """Both fits of 2e5 draws of the built-in model at m = 45."""
    values = sample(parse_model(SYNTHETIC_MODEL), 200_000, seed=11).values
    transform, cdf = fit_transform(values, default_delta(values))
    points = select_points(cdf, 45)
    return {variant: fit(points, transform=transform) for variant, fit in FITTERS.items()}


def inverse_with_warnings(inverse, model, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        xs = inverse(model, *args)
    return xs, [str(w.message) for w in caught]


def test_rational_draws_match_the_reference(rng, synthetic_fits):
    models = [synthetic_fits["rational"]]
    models += [fit_rational(*random_selected_data(rng)[:2]) for _ in range(20)]
    for model in models:
        # uniform targets plus every knot level, plateau levels included
        ys = np.concatenate((rng.uniform(0.0, 1.0, 2000), model.y))
        got, got_warnings = inverse_with_warnings(inverse_cdf, model, ys)
        want, want_warnings = inverse_with_warnings(reference_inverse_cdf, model, ys)
        assert got.tobytes() == want.tobytes()
        assert got_warnings == want_warnings
        assert all(inverse_cdf(model, y) == x for y, x in zip(ys[:50], want[:50]))


def test_cubic_draws_meet_the_residual_tolerance(rng, synthetic_fits):
    models = [synthetic_fits["cubic"]]
    models += [fit_cubic(*random_selected_data(rng)[:2]) for _ in range(20)]
    for model in models:
        ys = rng.uniform(0.0, 1.0, 20_000)
        ys = ys[~np.isin(ys, model.y)]
        xs = inverse_cdf(model, ys)
        residual = np.abs(cdf_eval(model, xs) - ys)
        # `_polish` gives up only where its bracket has shrunk to 4e-16 wide
        # (an atom ramp): the CDF must cross the target that close to x
        width = 4e-16 * np.maximum(1.0, np.abs(xs))
        collapsed = (cdf_eval(model, xs - width) <= ys) & (ys <= cdf_eval(model, xs + width))
        assert np.all((residual <= 1e-13) | collapsed)
        if model is models[0]:  # a smooth density: no bracket collapses
            assert np.max(residual) <= 1e-13


def test_cubic_inverse_evaluates_the_cdf_at_most_twice(synthetic_fits, monkeypatch):
    model = synthetic_fits["cubic"]
    sizes = []
    kernel = interp._piece_cdf

    def counted(model, k, x):
        sizes.append(np.size(x))
        return kernel(model, k, x)

    monkeypatch.setattr(interp, "_piece_cdf", counted)
    for seed in range(5):
        sizes.clear()
        inverse_cdf(model, np.random.default_rng(seed).uniform(0.0, 1.0, 20_000))
        assert 1 <= len(sizes) <= 2, sizes


# `draw_samples` as it stood before it drew in blocks: one whole-length
# uniform draw, one `inverse_cdf` call, then `a + b*x`. Kept as the reference
# its bits and its warning must match.
def reference_draw_samples(model, count, seed):
    rng = np.random.default_rng(seed)
    return model.transform.denormalize(inverse_cdf(model, rng.uniform(0.0, 1.0, count)))


BLOCK_COUNTS = [0, 1, interp._BLOCK - 1, interp._BLOCK, interp._BLOCK + 1,
                8191, 8192, 8193, 3 * 8192 + 7, 100_000]


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_block_draws_match_the_whole_draw(synthetic_fits, variant):
    model = synthetic_fits[variant]
    for count in BLOCK_COUNTS:
        got = draw_samples(model, count, seed=count + 1)
        want = reference_draw_samples(model, count, count + 1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), count


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_block_draws_warn_once_for_all_plateaus(variant):
    count, seed = 3 * interp._BLOCK + 7, 5
    u = np.random.default_rng(seed).uniform(0.0, 1.0, count)
    # two plateaus at the levels of draws in the first and third blocks
    lo, hi = sorted((u[10], u[2 * interp._BLOCK + 3]))
    data = MonotoneData(
        x=np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]), y=np.array([0.0, lo, lo, hi, hi, 1.0])
    )
    model = FITTERS[variant](data)
    got, got_warnings = inverse_with_warnings(draw_samples, model, count, seed)
    want, want_warnings = inverse_with_warnings(reference_draw_samples, model, count, seed)
    assert got.tobytes() == want.tobytes()
    assert len(got_warnings) == 1 and got_warnings == want_warnings
    assert got_warnings[0].startswith("2 target(s) lie on plateaus, e.g. ")


@pytest.mark.parametrize("count", [1e4, 8192.0, True, -3, "100"],
                         ids=["1e4", "float", "bool", "negative", "str"])
def test_draw_samples_count_must_be_a_non_negative_integer(synthetic_fits, count):
    with pytest.raises(ValueError, match=rf"^count must be a non-negative integer, got {count!r}$"):
        draw_samples(synthetic_fits["cubic"], count, seed=1)


def test_draw_samples_takes_numpy_integer_counts(synthetic_fits):
    model = synthetic_fits["cubic"]
    got = draw_samples(model, np.int64(9000), seed=2)
    assert got.tobytes() == draw_samples(model, 9000, seed=2).tobytes()


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


def test_load_rejects_non_finite_values(rng):
    data, transform, _ = random_selected_data(rng)
    doc = model_to_dict(fit_rational(data, transform=transform))
    for field, index in (("slopes", 2), ("knots_y", 3), ("knots_x", 1)):
        bad = json.loads(json.dumps(doc))
        bad[field][index] = float("nan")
        with pytest.raises(InvariantViolation, match=f"non-finite values in {field}"):
            model_from_dict(bad)
    for key in ("a", "b", "delta"):
        bad = json.loads(json.dumps(doc))
        bad["transform"][key] = float("nan")
        with pytest.raises(InvariantViolation, match=f"non-finite values in transform.{key}"):
            model_from_dict(bad)
    bad["transform"]["delta"] = "small"
    with pytest.raises(InvariantViolation, match="malformed model document"):
        model_from_dict(bad)


def test_load_rejects_mismatched_lengths(rng):
    data, transform, _ = random_selected_data(rng)
    doc = model_to_dict(fit_cubic(data, transform=transform))
    n = len(doc["knots_x"])
    doc["slopes"].pop()
    with pytest.raises(InvariantViolation, match=f"got lengths {n}, {n}, {n - 1}"):
        model_from_dict(doc)
    doc["knots_x"] = doc["knots_y"] = doc["slopes"] = [0.0]
    with pytest.raises(InvariantViolation, match="got lengths 1, 1, 1"):
        model_from_dict(doc)
    report = validate_model(
        DensityModel("cubic", np.zeros((2, 2)), np.zeros(2), np.zeros(2), transform),
        raise_on_failure=False,
    )
    assert not report["ok"] and "1-D" in report["failures"][0]


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


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_evaluators_refuse_nan(variant):
    values = np.random.default_rng(1).normal(size=20_000)
    model = fit_density(values, m=45, variant=variant)
    assert model.y[-2] == model.y[-1]  # the last piece is flat
    evaluators = (cdf_eval, pdf_eval, cdf_original, pdf_original)
    for f in evaluators:
        with pytest.raises(ValueError, match=r"^cannot evaluate at NaN: x is nan at index 0$"):
            f(model, math.nan)
        with pytest.raises(ValueError, match=r"^cannot evaluate at NaN: x is nan at index 1$"):
            f(model, np.array([0.5, math.nan, math.nan]))
    # far outside the support: the values of the support's ends, and no
    # RuntimeWarning from a piece kernel evaluated out there
    for x, cdf in ((-math.inf, 0.0), (-1e300, 0.0), (1e300, 1.0), (math.inf, 1.0)):
        assert cdf_eval(model, x) == cdf_original(model, x) == cdf
        assert pdf_eval(model, x) == pdf_original(model, x) == 0.0
    np.testing.assert_array_equal(cdf_eval(model, np.array([-math.inf, math.inf])), [0.0, 1.0])
    np.testing.assert_array_equal(pdf_eval(model, np.array([-math.inf, math.inf])), [0.0, 0.0])
