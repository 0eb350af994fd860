import importlib
import json
import math
import re
import types
import warnings
from fractions import Fraction

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
from gpcquad.interp import (
    IDENTITY_TRANSFORM,
    MODEL_FORMAT_VERSION,
    _cubic_monomial,
    _pieces,
    model_from_dict,
    model_to_dict,
)
from conftest import diagonal_data, mixture_values, random_selected_data

moments_module = importlib.import_module("gpcquad.moments")
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


def test_geometric_mean_slopes_needs_three_points():
    with pytest.raises(InvariantViolation, match="^need at least 3 points, got 2$"):
        geometric_mean_slopes(MonotoneData(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0])))


def test_project_slopes_hand_value():
    data = MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.9, 1.0]))
    projected = project_slopes(data, np.array([2.6, 1.0, 0.0]))
    # 3 * min(1.8, 0.2) = 0.6 caps the middle knot
    assert projected[1] == pytest.approx(0.6, abs=1e-15)
    assert projected[0] == pytest.approx(3 * 1.8, abs=1e-14) or projected[0] <= 3 * 1.8


@pytest.mark.parametrize("size", [2, 4])
def test_project_slopes_needs_one_raw_slope_per_point(size):
    with pytest.raises(InvariantViolation, match="^raw slopes must have length 3$"):
        project_slopes(diagonal_data(3), np.ones(size))


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
    # formerly RuntimeWarnings and slopes of nan or 0; now no such point set
    # can be built, so no estimator sees one
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        estimate(MonotoneData(x=np.array([0.0, 0.5, 0.5, 0.5, 1.0]), y=np.linspace(0.0, 1.0, 5)))


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
    for data in corpus:  # each point set checked itself when built
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
    # a 0-d array gives a float, as a Python float does (and as in inverse_cdf)
    for f in (cdf_eval, pdf_eval):
        got = f(model, np.array(0.3))
        assert type(got) is float and got == f(model, 0.3)


def test_fit_cubic_linear_coefficients():
    c2, c3, c4 = _cubic_monomial(_pieces(fit_cubic(diagonal_data(5))))
    np.testing.assert_allclose(c2, 1.0, rtol=0)
    np.testing.assert_allclose(c3, 0.0, atol=0)
    np.testing.assert_allclose(c4, 0.0, atol=0)


def test_fit_cubic_flat_first_interval():
    data = MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.0, 1.0]))
    model = fit_cubic(data)
    np.testing.assert_array_equal([c[0] for c in _cubic_monomial(_pieces(model))], [0.0, 0.0, 0.0])
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


# The piece kernels as they stood when they took (piece, x) pairs and
# gathered each point's knot data, kept as the reference that the kernels on
# the piece table, in (piece, t), must match bit for bit.
def reference_piece_terms(model, k, x):
    x0 = model.x[k]
    h = model.x[k + 1] - x0
    return (x - x0) / h, model.y[k], model.y[k + 1], model.slopes[k], model.slopes[k + 1], h


def reference_piece_cdf(model, k, x):
    t, y0, y1, d0, d1, h = reference_piece_terms(model, k, x)
    om = 1.0 - t
    if model.variant == "cubic":
        return (
            y0 * (1.0 + 2.0 * t) * om * om
            + h * d0 * t * om * om
            + y1 * t * t * (3.0 - 2.0 * t)
            + h * d1 * t * t * (t - 1.0)
        )
    s = (y1 - y0) / h
    w = (y1 * d0 + y0 * d1) / s
    v = (d0 + d1) / s
    return (y0 * om**2 + w * t * om + y1 * t * t) / (om**2 + v * t * om + t * t)


def reference_piece_pdf(model, k, x):
    t, y0, y1, d0, d1, h = reference_piece_terms(model, k, x)
    om = 1.0 - t
    s = (y1 - y0) / h
    if model.variant == "cubic":
        return d0 * om * (1.0 - 3.0 * t) + 6.0 * s * t * om + d1 * t * (3.0 * t - 2.0)
    v = (d0 + d1) / s
    den = om**2 + v * t * om + t * t
    return (d0 * om**2 + 2.0 * s * t * om + d1 * t * t) / den**2


# An independent copy of the inversion: the closed-form start, element by
# element in Python floats where the package works on arrays, which takes the
# root where N - z D crosses zero upwards by the sign of b, and the bisection
# over the float lattice that polishes every start, run until every bracket
# is closed. Rational draws must match it bit for bit.
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
    theta = []
    for a, b, c in zip((r0 - rm + r1).tolist(), (rm - 2.0 * r0).tolist(), r0.tolist()):
        e = math.frexp(max(abs(a), abs(b), abs(c)))[1]
        a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
        disc = b * b - 4.0 * a * c
        root = math.nan
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            try:
                root = q / a if b < 0.0 else c / q
            except ZeroDivisionError:
                pass
        theta.append(min(max(root, 0.0), 1.0) if math.isfinite(root) else 0.5)
    return x0 + np.array(theta) * h


def reference_polish(model, k, target, x):
    lo, hi = np.abs(model.x[k]), model.x[k + 1]  # a -0.0 knot as +0.0
    x = np.minimum(np.maximum(x, lo), hi)
    todo = np.arange(len(x))
    passes = 0
    while todo.size:
        passes += 1
        xa = x[todo]
        val = reference_piece_cdf(model, k[todo], xa) - target[todo]
        open_ = np.abs(val) > 1e-13
        todo, xa, val = todo[open_], xa[open_], val[open_]
        if not todo.size:
            break
        above = val > 0.0
        hi[todo[above]] = xa[above]
        lo[todo[~above]] = xa[~above]
        # non-negative floats in the order of their bit patterns
        lo_steps, hi_steps = lo[todo].view(np.int64), hi[todo].view(np.int64)
        x[todo] = (lo_steps + (hi_steps - lo_steps) // 2).view(np.float64)
        todo = todo[hi_steps - lo_steps >= 2]
    assert passes <= 63  # the bound that `_polish`'s loop relies on
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


def certified(model, xs, ys):
    """Whether each x meets |cdf(x) - y| <= 1e-13, or the CDF crosses its
    target y between x's two neighbouring floats: `inverse_cdf`'s contract."""
    below = cdf_eval(model, np.nextafter(xs, -np.inf))
    above = cdf_eval(model, np.nextafter(xs, np.inf))
    return (np.abs(cdf_eval(model, xs) - ys) <= 1e-13) | ((below <= ys) & (ys <= above))


def test_cubic_draws_meet_the_residual_tolerance(rng, synthetic_fits):
    models = [synthetic_fits["cubic"]]
    models += [fit_cubic(*random_selected_data(rng)[:2]) for _ in range(20)]
    for model in models:
        ys = rng.uniform(0.0, 1.0, 20_000)
        ys = ys[~np.isin(ys, model.y)]
        xs = inverse_cdf(model, ys)
        assert np.all(certified(model, xs, ys))
        if model is models[0]:  # a smooth density: every residual is small
            assert np.max(np.abs(cdf_eval(model, xs) - ys)) <= 1e-13


# a ramp 1e-9 wide carrying 0.4 of the mass: one float step there moves the
# CDF by about 1e-9. Formerly the bracket stopped 4e-16 wide, hundreds of
# floats at x = 0.01, and 1797 (cubic) and 1807 (rational) of these targets
# came back up to 1.2e-7 from their CDF values
STEEP_RAMPS = [
    pytest.param(variant, [0.0, 0.01, 0.01 + 1e-9, 1.0], [0.0, 0.3, 0.7, 1.0],
                 np.linspace(0.3, 0.7, 2003)[1:-1], id=variant)
    for variant in FITTERS
]
# a first piece w wide carrying y1 of the mass. Formerly the rational start
# could take a root off the piece, and 100 halvings of the bracket in value
# did not reach adjacent floats near x = w: from w = 1e-18 on, up to 17 992
# of these 20 000 targets came back uncertified, up to 0.9 off in CDF. Below
# w = 1e-154 a cubic's monomial coefficients overflow, and its fit is refused
STEEP_RAMPS += [
    pytest.param(variant, [0.0, w, 1.0], [0.0, y1, 1.0],
                 np.random.default_rng(45).uniform(0.0, 1.0, 20_000), id=f"{variant}-{w:g}-{y1}")
    for variant in FITTERS
    for w in (1e-18, 1e-20, 1e-30, 1e-100, 1e-160, 1e-300)
    for y1 in (0.1, 0.5, 0.9)
    if variant == "rational" or w > 1e-154
]
# `validate_model` takes a -0.0 first knot, whose bit pattern is negative
STEEP_RAMPS.append(pytest.param("rational", [-0.0, 1e-300, 1.0], [0.0, 0.5, 1.0],
                                np.random.default_rng(45).uniform(0.0, 1.0, 20_000), id="rational-minus-0"))


@pytest.mark.parametrize("variant, x, y, ys", STEEP_RAMPS)
def test_inverse_cdf_certifies_every_target_on_a_steep_ramp(variant, x, y, ys):
    model = FITTERS[variant](MonotoneData(x=np.array(x), y=np.array(y)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = inverse_cdf(model, ys)
        assert np.all(certified(model, xs, ys))
    if variant == "rational":  # these targets reach the lattice bisection
        assert xs.tobytes() == reference_inverse_cdf(model, ys).tobytes()
    j = np.searchsorted(model.y, ys, side="right") - 1  # each x on its target's piece
    assert np.all((model.x[j] <= xs) & (xs <= model.x[j + 1]))
    # from either end of its piece too: `_polish`'s bound certifies x whatever the start
    for start in (0.0, 1.0):
        assert np.all(certified(model, interp._polish(model.pieces, j, ys, np.full(ys.shape, start)), ys))


@st.composite
def narrow_piece_data(draw):
    """Points of 3-8 pieces whose widths are 10^U(-300, 0), narrowest first
    (near 0, where floats that fine exist), with rises in [0, 1], flat ones
    included, and the seed of the targets to invert."""
    n = draw(st.integers(3, 8))
    widths = np.sort(10.0 ** np.array(draw(st.lists(st.floats(-300.0, 0.0), min_size=n, max_size=n))))
    rises = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-12, 1.0), min_size=n, max_size=n)))
    if not rises.any():
        rises[-1] = 1.0
    x, y = np.cumsum(widths), np.cumsum(rises)
    x, y = np.concatenate(([0.0], x / x[-1])), np.concatenate(([0.0], y / y[-1]))
    return MonotoneData(x=x, y=y), draw(st.integers(0, 2**32 - 1))


@given(case=narrow_piece_data(), variant=st.sampled_from(["cubic", "rational"]))
@settings(max_examples=300, deadline=None)
def test_inverse_cdf_certifies_every_target_on_narrow_pieces(case, variant):
    data, seed = case
    try:
        model = FITTERS[variant](data)
    except InvariantViolation:
        return
    # uniform targets, and some inside every rising piece however little it carries
    rng = np.random.default_rng(seed)
    rising = np.flatnonzero(np.diff(model.y) > 0)
    inside = model.y[rising] + np.diff(model.y)[rising] * rng.uniform(0.0, 1.0, (64, rising.size))
    ys = np.concatenate((rng.uniform(0.0, 1.0, 2000), inside.ravel()))
    ys = ys[~np.isin(ys, model.y)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = inverse_cdf(model, ys)
        assert np.all(certified(model, xs, ys))


def reference_pieces(model):
    """The piece table from the reference kernels' per-point arithmetic."""
    k = np.arange(model.n - 1)
    _, y0, y1, d0, d1, h = reference_piece_terms(model, k, model.x[k])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (y1 - y0) / h
        w = (y1 * d0 + y0 * d1) / s
        v = (d0 + d1) / s
    x0, x1 = model.x[k], model.x[k + 1]
    return interp._Pieces(model.variant, x0, x1, h, y0, y1, y1 - y0, d0, d1, s,
                          h * d0, h * d1, w, v)


def reference_eval(model, x):
    """(cdf_eval, pdf_eval) at the 1-D points x through the reference kernels."""
    k = np.clip(np.searchsorted(model.x, x, side="right") - 1, 0, model.n - 2)
    inside = np.clip(x, model.x[0], model.x[-1])
    rising = model.y[k + 1] != model.y[k]
    cdf, pdf = model.y[k], np.zeros(x.shape)
    cdf[rising] = reference_piece_cdf(model, k[rising], inside[rising])
    pdf[rising] = reference_piece_pdf(model, k[rising], inside[rising])
    outside = (x < model.x[0]) | (x > model.x[-1])
    cdf = np.clip(np.where(x > model.x[-1], 1.0, np.where(x < model.x[0], 0.0, cdf)), 0.0, 1.0)
    return cdf, np.maximum(np.where(outside, 0.0, pdf), 0.0)


def reference_residuals(model):
    """validate_model's three residuals through the reference kernels, each
    piece evaluated at its own two knots."""
    x, y, d = model.x, model.y, model.slopes
    k = np.arange(model.n - 1)
    rising = np.diff(y) != 0

    def at(kernel, xs, fill):
        out = np.array(fill, dtype=float)
        out[rising] = kernel(model, k[rising], xs[rising])
        return out

    d_lo, d_hi = np.where(rising, d[:-1], 0.0), np.where(rising, d[1:], 0.0)
    pdf_lo = at(reference_piece_pdf, x[:-1], np.zeros(k.size))
    pdf_hi = at(reference_piece_pdf, x[1:], np.zeros(k.size))
    val_res = np.abs(np.concatenate((
        at(reference_piece_cdf, x[:-1], y[:-1]) - y[:-1],
        at(reference_piece_cdf, x[1:], y[:-1]) - y[1:],
    )))
    slope_res = np.concatenate((
        np.abs(pdf_lo - d_lo) / np.maximum(1.0, np.abs(d_lo)),
        np.abs(pdf_hi - d_hi) / np.maximum(1.0, np.abs(d_hi)),
    ))
    jumps = np.abs(pdf_hi[:-1] - pdf_lo[1:]) / np.maximum(1.0, np.abs(d[1:-1]))
    return {
        "hermite_value_max": float(np.max(val_res, initial=0.0)),
        "hermite_slope_max": float(np.max(slope_res, initial=0.0)),
        "c1_jump_max": float(np.max(jumps, initial=0.0)),
    }


def test_piece_table_keeps_the_bits_of_the_x_form_kernels(rng, synthetic_fits, monkeypatch):
    models = list(synthetic_fits.values())
    for _ in range(10):
        data, transform, _ = random_selected_data(rng)
        models += [fit(data, transform=transform) for fit in FITTERS.values()]
    for number, model in enumerate(models):
        table, want = model.pieces, reference_pieces(model)
        for name, got in zip(table._fields[1:], table[1:]):
            assert got.tobytes() == getattr(want, name).tobytes(), name
        # knots, piece midpoints, points outside the support and at random
        mid = 0.5 * (model.x[1:] + model.x[:-1])
        xs = np.concatenate((model.x, mid, [-np.inf, -1e300, -0.5, 1.5, 1e300, np.inf],
                             rng.uniform(0.0, 1.0, 2000)))
        want_cdf, want_pdf = reference_eval(model, xs)
        assert cdf_eval(model, xs).tobytes() == want_cdf.tobytes()
        assert pdf_eval(model, xs).tobytes() == want_pdf.tobytes()
        report = validate_model(model)
        for name, value in reference_residuals(model).items():
            assert report[name] == value, name
        got_moments = moments_module.moments(model, 21)
        got_oracle = [moments_module.numeric_moment_oracle(model, k) for k in (1, 7)] if number < 6 else []
        with monkeypatch.context() as patch:
            # the oracle's integrand as it stood: the x-form density at x_j + t h
            patch.setitem(vars(model), "pieces", want)
            patch.setattr(moments_module, "_to_t", lambda pieces, j, x: x)
            patch.setattr(moments_module, "_pdf_t", lambda pieces, j, x: reference_piece_pdf(model, j, x))
            assert got_moments.tobytes() == moments_module.moments(model, 21).tobytes()
            if got_oracle:
                assert got_oracle == [moments_module.numeric_moment_oracle(model, k) for k in (1, 7)]


def test_cubic_inverse_evaluates_the_cdf_at_most_twice(synthetic_fits, monkeypatch):
    model = synthetic_fits["cubic"]
    sizes = []
    kernel = interp._cdf_t

    def counted(pieces, k, t):
        sizes.append(np.size(t))
        return kernel(pieces, k, t)

    monkeypatch.setattr(interp, "_cdf_t", counted)
    for seed in range(5):
        sizes.clear()
        inverse_cdf(model, np.random.default_rng(seed).uniform(0.0, 1.0, 20_000))
        assert 1 <= len(sizes) <= 2, sizes


def test_a_built_model_builds_no_further_piece_table(synthetic_fits, monkeypatch):
    # every evaluator, the inversion and the moments built the whole table
    # on each call; a model now builds it once, when it is checked
    built = []
    build = interp._pieces

    def counted(model):
        built.append(model.variant)
        return build(model)

    monkeypatch.setattr(interp, "_pieces", counted)
    for variant, fitted in synthetic_fits.items():
        model = DensityModel(variant, fitted.x, fitted.y, fitted.slopes, fitted.transform)
        assert built == [variant]
        for x in (0.3, np.linspace(-0.5, 1.5, 101)):
            cdf_eval(model, x)
            pdf_eval(model, x)
        for y in (0.3, np.linspace(0.0, 1.0, 101)):
            inverse_cdf(model, y)
        draw_samples(model, 5000, 1)
        moments_module.moments(model, 21)
        moments_module.numeric_moment_oracle(model, 1)
        validate_model(model)
        assert built == [variant]
        built.clear()


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
    message = f"at least 0, got {count}" if count == -3 else f"an integer, got {count!r}"
    with pytest.raises(ValueError, match=rf"^count must be {message}$"):
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


@pytest.mark.parametrize(
    "key, value, message",
    [("knots_x", [0.0, 0.5, 0.25, 0.75, 1.0], "knots not strictly increasing"),
     ("transform", {"a": 0.0, "b": 0.0, "delta": 1e-3}, "invalid transform parameters"),
     ("transform", {"a": 0.0, "b": -1.0, "delta": 1e-3}, "invalid transform parameters")],
    ids=["knots-out-of-order", "zero-scale", "negative-scale"],
)
def test_load_rejects_a_model_its_check_refuses(tmp_path, key, value, message):
    doc = model_to_dict(fit_cubic(diagonal_data(5)))
    doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        load_model(path)


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "expected a JSON object, got list"), ('"model"', "expected a JSON object, got str"),
     ("not json", "{path} is not JSON: Expecting value")],
    ids=["list", "string", "not-json"],
)
def test_load_rejects_a_document_that_is_not_a_json_object(tmp_path, text, message):
    # a JSON array used to raise AttributeError, and text that is not JSON a
    # JSONDecodeError that named neither the file nor the kind of document
    path = tmp_path / "model.json"
    path.write_text(text)
    message = re.escape(message.format(path=path))
    with pytest.raises(InvariantViolation, match=f"^malformed model document: {message}"):
        load_model(path)
    if text != "not json":
        with pytest.raises(InvariantViolation, match=f"^malformed model document: {message}$"):
            model_from_dict(json.loads(text))


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
    with pytest.raises(InvariantViolation, match="must be 1-D with one length >= 2, got lengths 4, 2, 2"):
        DensityModel("cubic", np.zeros((2, 2)), np.zeros(2), np.zeros(2), transform)


# knots 1e-310 apart: the first piece's chord slope 0.5 / 1e-310 overflows
OVERFLOWING_KNOTS = {"knots_x": [0.0, 1e-310, 1.0], "knots_y": [0.0, 0.5, 1.0], "slopes": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_validate_refuses_piece_constants_that_overflow(variant):
    # formerly `ok` with NaN slope and C1 residuals and leaked RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=r"^piece 0 on \[0\.0, 1e-310\] has a non-finite chord slope"):
            DensityModel(variant, *(np.array(v) for v in OVERFLOWING_KNOTS.values()), IDENTITY_TRANSFORM)
    # a cubic piece 1e-200 wide has a finite chord slope, but its monomial
    # coefficients, which the moments read, overflow
    knots = (np.array([0.0, 1e-200, 1.0]), np.array([0.0, 0.5, 1.0]), np.zeros(3))
    if variant == "cubic":
        with pytest.raises(InvariantViolation, match=r"^piece 0 on \[0\.0, 1e-200\] has a non-finite c3, c4$"):
            DensityModel(variant, *knots, IDENTITY_TRANSFORM)
    else:
        DensityModel(variant, *knots, IDENTITY_TRANSFORM)


# knots 1e-308 apart: the chord slope 1e308 is finite, but the rational
# density's 2 s term overflows, and inf * 0 at t = 0 is nan
OVERFLOWING_DENSITY = {"knots_x": [0.0, 1e-308, 1.0], "knots_y": [0.0, 1.0, 1.0], "slopes": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("variant,names", [("cubic", "c3, c4"), ("rational", "2 s")])
def test_validate_names_the_piece_whose_density_overflows(variant, names):
    # formerly the rational model failed as `knot slope residual nan;
    # density jump at a knot nan`, naming no piece
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=rf"^piece 0 on \[0\.0, 1e-308\] has a non-finite {names}$"):
            DensityModel(variant, *(np.array(v) for v in OVERFLOWING_DENSITY.values()), IDENTITY_TRANSFORM)


@pytest.mark.parametrize("fit", [fit_cubic, fit_rational], ids=["cubic", "rational"])
def test_fits_name_the_piece_whose_chord_slope_overflows(fit):
    # formerly both slope estimators leaked `overflow encountered in divide`,
    # and the cubic failed as `non-finite values in slopes`, naming no piece
    knots = MonotoneData(x=np.array(OVERFLOWING_KNOTS["knots_x"]), y=np.array(OVERFLOWING_KNOTS["knots_y"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=r"^piece 0 on \[0\.0, 1e-310\] has a non-finite chord slope$"):
            fit(knots)
        # a flat piece that narrow has a chord slope of 0: formerly the
        # rational's one-sided end slope leaked `overflow encountered in
        # scalar divide` there
        fit(MonotoneData(x=np.array([0.0, 1e-310, 1.0]), y=np.array([0.0, 0.0, 1.0])))
        # a finite chord slope of 9e299: formerly the cubic's projection
        # leaked `overflow encountered in multiply`; its monomial
        # coefficients overflow, and the rational fits
        steep = MonotoneData(x=np.array([0.0, 1e-300, 1.0]), y=np.array([0.0, 0.9, 1.0]))
        if fit is fit_cubic:
            with pytest.raises(InvariantViolation, match=r"^piece 0 on \[0\.0, 1e-300\] has a non-finite c3, c4$"):
                fit(steep)
        else:
            fit(steep)


# ---------------------------------------------------------------------------
# construction contract: a model that fails its checks is refused where it
# is built, so no evaluator sees one (point sets: test_ecdf.py)
# ---------------------------------------------------------------------------


def model_fields(variant="cubic", **changes):
    """The fields of a valid model on four knots (the uniform density),
    with `changes` applied."""
    fields = dict(variant=variant, x=np.array([0.0, 0.3, 0.6, 1.0]), y=np.array([0.0, 0.3, 0.6, 1.0]),
                  slopes=np.ones(4), transform=IDENTITY_TRANSFORM)
    return {**fields, **changes}


@pytest.mark.parametrize(
    "fields,message",
    [
        # formerly built, and cdf_eval, pdf_eval and draw_samples gave NaN
        (model_fields(slopes=np.array([1.0, math.nan, 1.0, 1.0])), "non-finite values in slopes"),
        # formerly built, and given a Gauss rule by rules_from_model
        (model_fields(slopes=np.array([1.0, -1.0, 1.0, 1.0])), "negative knot slope"),
        # formerly built, and evaluated as if it were rational
        (model_fields("quintic"), "unknown variant 'quintic'"),
        # formerly built; its moments raised `math domain error` (rational)
        # or came back with no error (cubic)
        (model_fields("rational", y=np.array([0.0, 0.7, 0.6, 1.0])), "knot values not non-decreasing"),
        (model_fields("cubic", y=np.array([0.0, 0.7, 0.6, 1.0])), "knot values not non-decreasing"),
        (model_fields(x=np.array([0.1, 0.3, 0.6, 1.0])), r"endpoints not pinned to \(0,0\), \(1,1\)"),
        (model_fields(x=np.array([[0.0, 0.3, 0.6, 1.0]])), "knots_x, knots_y and slopes must be 1-D with one length >= 2, got lengths 4, 4, 4"),
    ],
    ids=["nan-slope", "negative-slope", "unknown-variant", "rational-falling-values",
         "cubic-falling-values", "unpinned-ends", "2-D-knots"],
)
def test_a_model_that_fails_its_checks_cannot_be_built(fields, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            DensityModel(**fields)


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_report_names_a_slope_made_negative_after_construction(variant):
    model = FITTERS[variant](diagonal_data(5))
    with pytest.raises(ValueError, match="read-only"):
        model.slopes[2] = -1.0  # in place, past the constructor's check
    # the report still names the failure on a stand-in no constructor checked
    slopes = model.slopes.copy()
    slopes[2] = -1.0
    stand_in = types.SimpleNamespace(variant=variant, x=model.x, y=model.y, slopes=slopes,
                                     transform=model.transform)
    report = validate_model(stand_in, raise_on_failure=False)
    assert report["ok"] is False and report["failures"] == ["negative knot slope"]


@pytest.mark.parametrize("variant", ["cubic", "rational"])
def test_a_stand_in_needs_only_a_models_fields(variant, synthetic_fits):
    # formerly `AttributeError: ... no attribute 'n'`
    model = synthetic_fits[variant]
    stand_in = types.SimpleNamespace(variant=model.variant, x=model.x, y=model.y,
                                     slopes=model.slopes, transform=model.transform)
    assert json.dumps(validate_model(stand_in)) == json.dumps(dict(model.checks))


@pytest.mark.parametrize("variant", ["cubic", "rational"])
@pytest.mark.parametrize(
    "x,y,slopes,outcome",
    [
        # a slope where a rising piece meets a flat one: its density jumps
        ([0, .3, .6, 1], [0, .3, .3, 1], [1, .5, 0, 1], "density jump at a knot 5.00e-01"),
        ([0, .3, .6, 1], [0, 0, .5, 1], [0, .5, 1, 1], "density jump at a knot 5.00e-01"),
        # the jump is scaled by max(1, |d|)
        ([0, .3, .6, 1], [0, .3, .3, 1], [1, 2, 0, 1], "density jump at a knot 1.00e+00"),
        # the tolerance is 1e-12
        ([0, .3, .6, 1], [0, .3, .3, 1], [1, 2e-12, 0, 1], "density jump at a knot 2.00e-12"),
        ([0, .3, .6, 1], [0, .3, .3, 1], [1, 1e-13, 0, 1], 1e-13),
        # between two flat pieces, or at an end, a slope is no jump
        ([0, .3, .5, .7, 1], [0, .3, .3, .3, 1], [1, 0, .5, 0, 1], 0.0),
        ([0, .3, .6, 1], [0, 0, .5, 1], [.7, 0, 1, 1], 0.0),
    ],
    ids=["jump-0.5", "jump-0.5-after-flat", "jump-2-scaled", "jump-2e-12",
         "jump-1e-13-built", "between-flats", "flat-first-piece"],
)
def test_c1_is_a_zero_slope_where_a_rising_piece_meets_a_flat_one(variant, x, y, slopes, outcome):
    fields = dict(variant=variant, x=np.array(x, dtype=float), y=np.array(y, dtype=float),
                  slopes=np.array(slopes, dtype=float), transform=IDENTITY_TRANSFORM)
    if isinstance(outcome, str):
        with pytest.raises(InvariantViolation, match=f"^{re.escape(outcome)}$"):
            DensityModel(**fields)
    else:
        assert DensityModel(**fields).checks["c1_jump_max"] == outcome


def assert_exact_at_knots(model):
    """Each rising piece's kernels give its knot values and slopes bit for
    bit at t = 0 and t = 1, with no numpy warning: what `validate_model`
    reports as 0 without evaluating them."""
    pieces = model.pieces
    k = np.flatnonzero(pieces.dy != 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, values, slopes in ((0.0, pieces.y0, pieces.d0), (1.0, pieces.y1, pieces.d1)):
            assert interp._cdf_t(pieces, k, t).tobytes() == values[k].tobytes(), t
            assert interp._pdf_t(pieces, k, t).tobytes() == slopes[k].tobytes(), t


def test_fits_meet_their_knots_exactly(synthetic_fits):
    models = list(synthetic_fits.values())
    for j in range(4):  # with point masses, at m = 200
        values = mixture_values(np.random.default_rng([1, j]), size=20_000)
        transform, cdf = fit_transform(values, default_delta(values))
        points = select_points(cdf, 200)
        models += [fit(points, transform=transform) for fit in FITTERS.values()]
    # slopes of about 9e299 on a piece 1e-300 wide
    models.append(fit_rational(MonotoneData(x=np.array([0.0, 1e-300, 1.0]), y=np.array([0.0, 0.9, 1.0]))))
    for model in models:
        assert_exact_at_knots(model)
        assert (model.checks["hermite_value_max"], model.checks["hermite_slope_max"]) == (0.0, 0.0)


@st.composite
def hand_built_models(draw):
    """DensityModel fields: up to 6 knots on a lattice of step 1e-6 (so no
    piece is narrower), non-decreasing knot values, slopes in [0, 1e6] with
    an occasional negative, NaN or inf one, and a known or unknown variant."""
    n = draw(st.integers(2, 6))
    inner = draw(st.lists(st.integers(1, 10**6 - 1), min_size=n - 2, max_size=n - 2, unique=True))
    levels = draw(st.lists(st.integers(0, 10**6), min_size=n - 2, max_size=n - 2))
    slopes = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    spoiled = draw(st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from([-1.0, math.nan, math.inf])))
    if spoiled is not None:
        slopes[spoiled[0]] = spoiled[1]
    return dict(
        variant=draw(st.sampled_from(["cubic", "rational", "quintic"])),
        x=np.array([0, *sorted(inner), 10**6]) / 1e6,
        y=np.array([0, *sorted(levels), 10**6]) / 1e6,
        slopes=np.array(slopes),
        transform=IDENTITY_TRANSFORM,
    )


@given(fields=hand_built_models())
@settings(max_examples=200, deadline=None)
def test_a_hand_built_model_is_refused_or_sound(fields, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "hand-built-model.json"
    grid = np.linspace(0.0, 1.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = DensityModel(**fields)
        except InvariantViolation:
            return
        assert_exact_at_knots(model)
        save_model(model, path)
        loaded = load_model(path)
        cdf, pdf = cdf_eval(model, grid), pdf_eval(model, grid)
    for built in (model, loaded):
        assert not any(getattr(built, name).flags.writeable for name in ("x", "y", "slopes"))
    assert (loaded.variant, loaded.transform) == (model.variant, model.transform)
    for name in ("x", "y", "slopes"):
        assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
    assert np.all(np.isfinite(cdf) & (0.0 <= cdf) & (cdf <= 1.0))
    assert np.all(np.isfinite(pdf))


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
    model = FITTERS[variant](data)  # validates Hermite/C1/monotonicity internally
    xs = np.linspace(0, 1, 1500)
    cdf = cdf_eval(model, xs)
    assert np.all(np.diff(cdf) >= -1e-15)
    assert np.all(pdf_eval(model, xs) >= 0.0)
    assert cdf_eval(model, 0.0) == 0.0 and cdf_eval(model, 1.0) == 1.0


@pytest.mark.parametrize("w", [1e-155, 1e-160, 1e-300])
def test_rational_density_is_finite_where_its_denominator_squared_overflows(w):
    # the weight v of the wide piece is about 9/w, so its denominator exceeds
    # 1e154 and has no finite square over most of the piece: formerly
    # "RuntimeWarning: overflow encountered in square" and a density of 0
    model = fit_rational(MonotoneData(x=np.array([0.0, w, 1.0]), y=np.array([0.0, 0.9, 1.0])))
    assert model.pieces.v[1] > 1e154
    xs = np.linspace(0.0, 1.0, 101)[1:-1]
    pdf = pdf_eval(model, xs)  # under pytest's error::RuntimeWarning filter
    np.testing.assert_array_equal(pdf_original(model, xs), pdf)  # the identity transform
    p, ts = model.pieces, interp._to_t(model.pieces, 1, xs)
    d0, d1, s, v = (Fraction(float(c[1])) for c in (p.d0, p.d1, p.s, p.v))
    for t, got in zip(ts.tolist(), pdf.tolist()):
        t = Fraction(t)
        num = d0 * (1 - t) ** 2 + 2 * s * t * (1 - t) + d1 * t * t
        want = num / ((1 - t) ** 2 + v * t * (1 - t) + t * t) ** 2
        assert 0.0 < got and abs(got - want) <= 1e-14 * want


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
