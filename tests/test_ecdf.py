import ast
import dataclasses
import math
import re
import warnings
from pathlib import Path

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
from gpcquad import ecdf
from gpcquad.ecdf import _walk
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
    with pytest.raises(DegenerateSamplesError, match="must be finite, found the value nan"):
        fit_transform(np.array([0.0, 1.0, np.nan]), delta=0.1)
    with pytest.raises(DegenerateSamplesError, match="must be finite, found the value inf"):
        fit_transform(np.array([0.0, 1.0, np.inf]), delta=0.1)
    with pytest.raises(DegenerateSamplesError, match=r"range \[-1e\+308, 1e\+308\].*overflows"):
        fit_transform(np.array([-1e308, 0.0, 1e308]), delta=0.1)
    # delta is the spacing of doubles at 1e16: it widens the range, but the
    # low end still normalizes to 0.0
    with pytest.raises(DegenerateSamplesError, match=(
            r"^delta = 2\.0 is too small relative to the sample range to keep normalized "
            r"samples strictly inside \(0, 1\)$")):
        fit_transform(np.array([-1e16, 1.0]), delta=2.0)


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, np.nan, 2.0], "must be finite, found the value nan"),
        ([1.0, np.inf], "must be finite, found the value inf"),
        ([-np.inf, np.inf], "must be finite, found the value -inf"),
        # formerly a margin of 0.0 and of inf from `default_delta`
        ([1.0, 1.0], r"^degenerate sample set: all values equal 1\.0"),
        ([-1e308, 1e308], r"sample range \[-1e\+308, 1e\+308\] .*overflows float64"),
        # formerly a margin of 0.0, which `fit_transform` then refused as a
        # delta the caller never gave; a margin the caller gives fits it
        ([0.0, 5e-324], r"^the sample range \[0\.0, 5e-324\] is too narrow for a margin "
                        r"of 1e-3 of its width, which underflows to 0\.0"),
    ],
    ids=["nan", "inf", "both-infinities", "all-equal", "overflowing-width", "underflowing-margin"],
)
def test_default_delta_rejects_what_fit_transform_rejects(values, message):
    with pytest.raises(DegenerateSamplesError, match=message + "$"):
        default_delta(np.array(values))
    if "too narrow" in message:  # a margin the caller gives fits the range
        fit_transform(np.array(values), delta=0.1)
        return
    with pytest.raises(DegenerateSamplesError, match=message + "$"):
        fit_transform(np.array(values), delta=0.1)


def test_fit_transform_names_a_delta_below_float_spacing():
    values = 1.0 + 1e-15 * np.arange(50)  # range 4.9e-14, default delta 4.9e-17
    with pytest.raises(DegenerateSamplesError) as err:
        fit_transform(values, default_delta(values))
    assert str(err.value) == (
        f"delta = {default_delta(values)} is below the spacing "
        f"2.220446049250313e-16 of doubles at magnitude {values.max()}, so the "
        f"range [1.0, {values.max()}] cannot be widened by it"
    )


def test_a_sample_set_fits_as_its_values():
    samples = sample(parse_model(SYNTHETIC_MODEL), 2000, seed=1)
    params, cdf = fit_transform(samples, 0.01)
    want_params, want_cdf = fit_transform(samples.values, 0.01)
    assert params == want_params
    assert cdf.sorted_values.tobytes() == want_cdf.sorted_values.tobytes()
    assert default_delta(samples) == default_delta(samples.values)
    one = dataclasses.replace(samples, values=samples.values[:1])
    with pytest.raises(DegenerateSamplesError, match=r"^need at least 2 samples, got 1$"):
        fit_transform(one, 0.01)


def test_ecdf_does_not_import_surrogate():
    # a sample set is read through its `values`, so the front end does not
    # depend on the surrogate layer that produces it
    found = []
    for node in ast.walk(ast.parse(Path(ecdf.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("surrogate" in module for module in modules):
                found.append((node.lineno, ast.unparse(node)))
    assert found == []


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

    cdf = EmpiricalCDF(sorted_values=np.array([0.1, 0.5, 0.9]))
    # the count is the size of the values: no ECDF can disagree with them
    assert cdf.count == 3
    with pytest.raises(TypeError):
        EmpiricalCDF(sorted_values=np.array([0.1, 0.5, 0.9]), count=4)
    assert ecdf_eval(cdf, 0.5) == pytest.approx(2 / 3)
    assert ecdf_eval(cdf, -1.0) == 0.0
    assert ecdf_eval(cdf, 2.0) == 1.0
    assert ecdf_eval(cdf, 0.9) == 1.0  # right continuity: count <= x
    assert ecdf_eval(cdf, 0.0999) == 0.0
    # a 0-d array gives a float, as a Python float does (and as in cdf_eval)
    got = ecdf_eval(cdf, np.array(0.5))
    assert type(got) is float and got == ecdf_eval(cdf, 0.5)


def test_ecdf_eval_refuses_nan():
    from gpcquad import EmpiricalCDF

    cdf = EmpiricalCDF(sorted_values=np.array([0.1, 0.5, 0.9]))
    # a search sorts NaN past every value: this used to read 1.0
    with pytest.raises(ValueError, match=r"^cannot evaluate at NaN: x is nan at index 0$"):
        ecdf_eval(cdf, np.nan)
    with pytest.raises(ValueError, match=r"^cannot evaluate at NaN: x is nan at index 1$"):
        ecdf_eval(cdf, [0.5, np.nan])


@pytest.mark.parametrize("values, message", [
    ([0.7, 0.2, 0.5], r"^ECDF values must never decrease, and hold no NaN$"),
    ([0.2, np.nan, 0.5], r"^ECDF values must never decrease, and hold no NaN$"),
    ([np.nan, 0.5], r"^normalized samples must lie strictly inside \(0,1\)$"),
    ([0.2, 1.0], r"^normalized samples must lie strictly inside \(0,1\)$"),
    ([[0.2, 0.5], [0.6, 0.7]], r"^ECDF values must be a non-empty 1-D float64 array, got float64 of shape \(2, 2\)$"),
    ([], r"^ECDF values must be a non-empty 1-D float64 array, got float64 of shape \(0,\)$"),
    ([0.2 + 1j, 0.5], r"^ECDF values must be a non-empty 1-D float64 array, got complex128 of shape \(2,\)$"),
], ids=["unsorted", "nan", "nan-first", "one", "2-d", "empty", "complex"])
def test_an_empirical_cdf_checks_its_values(values, message):
    # unsorted values used to give ecdf_eval(cdf, 0.6) = 1.0 for [0.7, 0.2,
    # 0.5] and make select_points blame the sample resolution; 2-D values
    # failed on an array's truth value, and a NaN leaked a RuntimeWarning
    # before numpy refused negative repeats
    from gpcquad import EmpiricalCDF

    with pytest.raises(InvariantViolation, match=message):
        EmpiricalCDF(sorted_values=np.array(values))
    cdf = EmpiricalCDF(sorted_values=np.array([0.2, 0.5, 0.7]))
    with pytest.raises(InvariantViolation, match=message):
        dataclasses.replace(cdf, sorted_values=np.array(values))


def test_ecdf_eval_distinct_value_levels(rng):
    values = rng.normal(size=50)
    _, cdf = fit_transform(values, 0.01)
    for k, xv in enumerate(cdf.sorted_values, start=1):
        assert ecdf_eval(cdf, xv) == pytest.approx(k / 50)


# The point selection as it stood when it walked the distinct values that
# np.unique returns: the reference `select_points` must match bit for bit.
def reference_select_points(cdf, m):
    ux, counts = np.unique(cdf.sorted_values, return_counts=True)
    uy = np.cumsum(counts) / cdf.count
    chosen = []
    px, py = 0.0, 0.0
    c = -1
    target = 1.0 / m
    t2 = target * target
    last = len(ux) - 1
    while c < last:
        lo, hi = c + 1, last
        d2 = (ux[lo] - px) ** 2 + (uy[lo] - py) ** 2
        if d2 <= t2:
            while lo < hi:
                mid = (lo + hi + 1) // 2
                d2 = (ux[mid] - px) ** 2 + (uy[mid] - py) ** 2
                if d2 <= t2:
                    lo = mid
                else:
                    hi = mid - 1
        chosen.append(lo)
        px, py = ux[lo], uy[lo]
        c = lo
    px = np.concatenate(([0.0], ux[chosen], [1.0]))
    py = np.concatenate(([0.0], uy[chosen], [1.0]))
    out_x, out_y = [0.0], [0.0]
    for k in range(1, len(px)):
        dx = px[k] - px[k - 1]
        dy = py[k] - py[k - 1]
        pieces = max(1, math.ceil(max(dx, dy) * m))
        for i in range(1, pieces):
            out_x.append(px[k - 1] + dx * (i / pieces))
            out_y.append(py[k - 1] + dy * (i / pieces))
        out_x.append(px[k])
        out_y.append(py[k])
    y = np.asarray(out_y)
    return np.asarray(out_x), np.minimum.accumulate(y[::-1])[::-1]


@given(st.floats(-1e150, 1e150))
@settings(max_examples=500, deadline=None)
def test_python_square_matches_numpy_scalar_square(v):
    # the walk squares Python floats where the reference squares np.float64:
    # both call C pow, which need not round like v * v
    assert (v**2).hex() == float(np.float64(v) ** 2).hex()


def _assert_selects_like_reference(cdf, m):
    want_x, want_y = reference_select_points(cdf, m)
    if np.any(np.diff(want_x) <= 0):
        with pytest.raises(SelectionError):
            select_points(cdf, m)
        return
    data = select_points(cdf, m)
    assert data.x.tobytes() == want_x.tobytes()
    assert data.y.tobytes() == want_y.tobytes()


def test_select_points_matches_reference_walk_on_atoms(rng):
    for _ in range(40):
        values = mixture_values(rng, size=int(rng.integers(50, 4000)))  # point masses: ties
        _, cdf = fit_transform(values, default_delta(values))
        for m in (2, 7, int(rng.integers(2, 201)), 200):
            _assert_selects_like_reference(cdf, m)


@pytest.fixture(scope="module")
def synthetic_cdf():
    values = sample(parse_model(SYNTHETIC_MODEL), 1_000_000, seed=1).values
    return fit_transform(values, default_delta(values))[1]


@pytest.mark.parametrize("m", [2, 45, 200])
def test_select_points_matches_reference_walk_synthetic(synthetic_cdf, m):
    _assert_selects_like_reference(synthetic_cdf, m)


# The split of oversized steps as `select_points` wrote it with a Python loop
# over the walk's points: its one array pass must give every point's bits.
def reference_split(cdf, m):
    xs, ys = _walk(cdf, m)
    px = [0.0, *xs, 1.0]
    py = [0.0, *ys, 1.0]
    out_x = [0.0]
    out_y = [0.0]
    for x0, x1, y0, y1 in zip(px, px[1:], py, py[1:]):
        dx = x1 - x0
        dy = y1 - y0
        pieces = max(1, math.ceil(max(dx, dy) * m))
        for i in range(1, pieces):
            out_x.append(x0 + dx * (i / pieces))
            out_y.append(y0 + dy * (i / pieces))
        out_x.append(x1)
        out_y.append(y1)
    y = np.asarray(out_y)
    return np.asarray(out_x), np.minimum.accumulate(y[::-1])[::-1]


def _assert_splits_like_reference(cdf, m):
    want_x, want_y = reference_split(cdf, m)
    if np.any(np.diff(want_x) <= 0):
        with pytest.raises(SelectionError):
            select_points(cdf, m)
        return
    data = select_points(cdf, m)
    assert data.x.tobytes() == want_x.tobytes()
    assert data.y.tobytes() == want_y.tobytes()


def test_select_points_splits_like_the_loop_on_mixture_fine():
    # the benchmark's mixture-fine datasets at seed 1: N = 2e4, m = 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in range(38):
            values = mixture_values(np.random.default_rng([1, j]), size=20_000)
            _assert_splits_like_reference(fit_transform(values, default_delta(values))[1], 200)


@pytest.mark.parametrize("m", [2, 45, 200])
def test_select_points_splits_like_the_loop_on_synthetic(m):
    values = sample(parse_model(SYNTHETIC_MODEL), 200_000, seed=1).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_splits_like_reference(fit_transform(values, default_delta(values))[1], m)


def test_walk_chord_never_decreases_inside_a_window(rng, synthetic_cdf):
    # the precondition for `_walk`'s one `bisect` per step: inside every
    # window it searches, the chord^2 from the current point, computed as
    # `_walk` computes it, never decreases along the sorted values. The
    # mixtures have ties and windows of 100 indices; the synthetic sample's
    # windows are about 22 000 indices wide
    mixtures = (mixture_values(rng, size=20_000) for _ in range(40))
    cases = [(fit_transform(values, default_delta(values))[1], 200) for values in mixtures]
    for cdf, m in cases + [(synthetic_cdf, 45)]:
        sv, count = cdf.sorted_values, cdf.count
        last, reach = sv.size - 1, -(-sv.size // m)
        xs, ys = _walk(cdf, m)
        # `_walk`'s node(i): the value at sorted index i and the count of
        # values at or below it, as Python numbers
        node_x = sv.tolist()
        node_k = np.searchsorted(sv, sv, side="right").tolist()
        for px, py in zip([0.0, *xs[:-1]], [0.0, *ys[:-1]]):
            end = int(np.searchsorted(sv, px, side="right"))
            chords = [
                (node_x[i] - px) ** 2 + (node_k[i] / count - py) ** 2
                for i in range(end, min(end + reach, last) + 1)
            ]
            assert all(a <= b for a, b in zip(chords, chords[1:]))


def test_select_points_diagonal_m4(rng):
    # near-diagonal ECDF: arc length ~ sqrt(2), expect about ceil(4 sqrt 2)+1
    values = rng.uniform(0.0, 1.0, 20_000)
    _, cdf = fit_transform(values, 1e-4)
    data = select_points(cdf, 4)
    assert 6 <= data.n <= 8
    assert np.max(np.diff(data.x)) <= 0.25 + 1e-12
    assert np.max(np.diff(data.y)) <= 0.25 + 1e-12


def assert_steps_within(data, m):
    """No step of a selected point set exceeds 1/m in either coordinate."""
    bound = 1.0 / m + 1e-12
    assert np.max(np.diff(data.x)) <= bound and np.max(np.diff(data.y)) <= bound


def test_select_points_synthetic_point_count(synthetic_cdf):
    data = select_points(synthetic_cdf, 45)
    assert 64 <= data.n <= 84
    assert_steps_within(data, 45)


def test_select_points_m_guard(rng):
    _, cdf = fit_transform(rng.normal(size=100), 0.01)
    with pytest.raises(SelectionError):
        select_points(cdf, 1)
    # formerly an untyped TypeError from inside the chord walk
    for m in (45.5, 2.0, np.float64(10), True, "10"):
        with pytest.raises(SelectionError, match=rf"^m must be an integer, got {re.escape(repr(m))}$"):
            select_points(cdf, m)
    got = select_points(cdf, np.int64(10))
    want = select_points(cdf, 10)
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


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
    # building a point set checks it
    with pytest.raises(InvariantViolation):
        MonotoneData(x=np.array([0.0, 1.0]), y=np.array([0.0, 0.5]))
    with pytest.raises(InvariantViolation):
        MonotoneData(x=np.array([0.0, 0.5, 0.5, 1.0]), y=np.array([0, 0.1, 0.2, 1.0]))
    with pytest.raises(InvariantViolation):
        MonotoneData(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.8, 0.5]))
    data = MonotoneData(x=[0.0, 0.5, 1.0], y=[0.0, 0.5, 1.0])
    assert data.x.tobytes() == np.array([0.0, 0.5, 1.0]).tobytes() == data.y.tobytes()


@pytest.mark.parametrize(
    "x,y,message",
    [
        ([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.4, 1.0], "abscissae must be strictly increasing"),
        ([0.0, 0.5, 0.7, 1.0], [0.0, 0.6, 0.4, 1.0], "ordinates must be non-decreasing"),
        ([0.0, 0.5, 1.0], [0.0, 1.0], "point arrays must have equal length >= 2"),
        # formerly numpy's untyped "truth value of an array ... is ambiguous"
        (np.zeros((2, 2)), np.zeros(2), r"point arrays must be 1-D, got shapes \(2, 2\) and \(2,\)"),
        ([0.0, 1.0], [[0.0, 1.0]], r"point arrays must be 1-D, got shapes \(2,\) and \(1, 2\)"),
        (0.0, 1.0, r"point arrays must be 1-D, got shapes \(\) and \(\)"),
    ],
    ids=["repeated-x", "falling-y", "unequal-lengths", "2-D-x", "2-D-y", "0-d"],
)
def test_a_point_set_that_fails_its_checks_cannot_be_built(x, y, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            MonotoneData(x=np.array(x), y=np.array(y))


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
    # the point set checked itself when select_points built it
    assert_steps_within(data, m)


def test_refinement_never_decreases_n(rng):
    for _ in range(5):
        values = mixture_values(rng, size=1500)
        _, cdf = fit_transform(values, default_delta(values))
        counts = [select_points(cdf, m).n for m in (2, 3, 5, 8, 13, 21, 34, 55, 89)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_points_file_grammar(tmp_path):
    # a header is any first line whose first field is not a number, and
    # blank fields are skipped; formerly only a line starting with `x` was
    # a header, and a blank field failed the row
    path = tmp_path / "points.csv"
    path.write_bytes(b"\xef\xbb\xbfposition, level\r\n\r\n0.0, 0.0,\r\n0.5,,0.25\r\n,1.0,1.0\r\n")
    data = load_monotone_csv(path)
    assert data.x.tolist() == [0.0, 0.5, 1.0] and data.y.tolist() == [0.0, 0.25, 1.0]
    for text in ("", "\n \n", "x,y\n", "position, level\n\n"):
        path.write_text(text)
        with pytest.raises(InvariantViolation, match=rf"^no points in {re.escape(str(path))}$"):
            load_monotone_csv(path)


def test_monotone_csv_round_trip(tmp_path, rng):
    values = mixture_values(rng, size=800)
    _, cdf = fit_transform(values, default_delta(values))
    data = select_points(cdf, 10)
    path = tmp_path / "points.csv"
    save_monotone_csv(data, path)
    again = load_monotone_csv(path)
    assert np.array_equal(again.x, data.x)
    assert np.array_equal(again.y, data.y)
