import dataclasses
import importlib
import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpcquad import (
    MOMENT_CAP,
    SYNTHETIC_MODEL,
    InvariantViolation,
    MonotoneData,
    NumericalError,
    default_delta,
    fit_cubic,
    fit_rational,
    fit_transform,
    moments,
    moments_cubic,
    moments_rational,
    numeric_moment_oracle,
    parse_model,
    rules_from_model,
    sample,
    select_points,
)
from gpcquad.moments import _SERIES_THRESHOLD, _segment_fsums
from conftest import diagonal_data, random_selected_data

moments_module = importlib.import_module("gpcquad.moments")


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


@pytest.mark.parametrize("width", [1e-6, 1e-20, 1e-100, 1e-150])
def test_oracle_total_mass_of_a_steep_rational_piece(width):
    # piece 1 has v ~ 0.9 / width; beyond its boundary layer its density falls
    # like 1/t^2, and with breakpoints only at the layer and 0.5 the oracle
    # lost that tail: M_0 read 0.99091 at widths 1e-20 to 1e-150
    model = fit_rational(MonotoneData(x=np.array([0.0, width, 1.0]), y=np.array([0.0, 0.9, 1.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(numeric_moment_oracle(model, 0) - 1.0) <= 1e-15


@pytest.mark.parametrize("width", [1e-160, 1e-300])
def test_rational_moments_refuse_a_piece_too_narrow_for_float64(width):
    # fit_rational certifies these points, but the piece's width squared
    # underflows; formerly moments returned NaN and leaked numpy warnings,
    # and rules_from_model blamed a NaN kappa_1
    model = fit_rational(MonotoneData(x=np.array([0.0, width, 1.0]), y=np.array([0.0, 0.9, 1.0])))
    message = (rf"^the moments of piece 0 on \[0\.0, {width}\] are not finite in float64: "
               rf"the piece is too narrow or too steep for them$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            moments(model, 21)
        for outcome in rules_from_model(model, (4, 10)).values():
            assert isinstance(outcome, NumericalError) and re.match(message, str(outcome))


def test_unknown_variant_is_named():
    # formerly built, and refused by `moments` as a ValueError
    with pytest.raises(InvariantViolation, match="^unknown variant 'cubc'$"):
        dataclasses.replace(fit_cubic(diagonal_data(4)), variant="cubc")


def test_moments_reject_a_float_order():
    model = fit_cubic(diagonal_data(4))
    with pytest.raises(ValueError, match=r"^kmax must be an integer, got 3\.0$"):
        moments(model, 3.0)
    assert moments(model, np.int64(4)).tobytes() == moments(model, 4).tobytes()


def test_oracle_names_a_piece_that_does_not_converge(monkeypatch):
    model = fit_rational(diagonal_data(4))
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (0.25, 1e-6))
    with pytest.raises(NumericalError, match=r"^adaptive quadrature failed to converge on "
                                             r"piece 0 \(error estimate 1\.00e-06\)$"):
        numeric_moment_oracle(model, 2)


def test_oracle_rejects_a_negative_order():
    model = fit_rational(diagonal_data(4))
    with pytest.raises(ValueError, match="^k must be at least 0, got -1$"):
        numeric_moment_oracle(model, -1)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
        numeric_moment_oracle(model, 2.5)
    assert numeric_moment_oracle(model, np.int64(3)) == numeric_moment_oracle(model, 3)


# ---------------------------------------------------------------------------
# the segmented exact-sum kernel against math.fsum
# ---------------------------------------------------------------------------


def fsum_outcome(values):
    """The bits math.fsum returns for values, or the type of what it raises."""
    try:
        return np.float64(math.fsum(values)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_matches_fsum(terms, starts):
    ends = list(starts[1:]) + [terms.shape[1]]
    want = [fsum_outcome(terms[:, a:b].ravel().tolist()) for a, b in zip(starts, ends)]
    raised = [w for w in want if isinstance(w, type)]
    if raised:
        with pytest.raises(raised[0]):
            _segment_fsums(terms, np.asarray(starts))
    else:
        got = _segment_fsums(terms, np.asarray(starts))
        assert [np.float64(g).tobytes() for g in got] == want


@st.composite
def segmented(draw, elements):
    """A (rows, columns) block of terms split into runs of columns."""
    rows = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    size = rows * sum(widths)
    values = draw(st.lists(elements, min_size=size, max_size=size))
    return np.array(values, dtype=float).reshape(rows, -1), np.cumsum([0] + widths[:-1]).tolist()


def from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_SMALLEST_NORMAL = 2.0**-1022
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.floats(min_value=-_SMALLEST_NORMAL, max_value=_SMALLEST_NORMAL)
ANY_BITS = st.integers(0, 2**64 - 1).map(from_bits)


@settings(max_examples=300, deadline=None)
@given(segmented(st.one_of(FINITE, SUBNORMAL, ANY_BITS)))
@example((np.array([[0.0, -0.0, 0.0]]), [0, 1]))  # all-zero runs
@example((np.array([[-0.0], [-0.0]]), [0]))
@example((np.array([[3.5, -2.0**-1074, 1e300]]), [0, 1, 2]))  # single terms
@example((np.array([[1.0, 2.0**-53]]), [0]))  # ties to even
@example((np.array([[1.0 + 2.0**-52, 2.0**-53]]), [0]))
@example((np.array([[-1.0, -(2.0**-53), 1.0, 2.0**-53]]), [0, 2]))
@example((np.array([[1e308, 1e308, -1e308]]), [0]))  # fsum overflows
def test_segment_fsums_match_fsum(case):
    assert_matches_fsum(*case)


@st.composite
def cancelling(draw):
    """Runs of x, -x pairs plus a small rest, shuffled: each exact sum is its
    rest, far below the size of the terms."""
    row, starts = [], []
    for _ in range(draw(st.integers(1, 4))):
        big = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6))
        scale = 2.0 ** draw(st.integers(-1074, 0))
        rest = [r * scale for r in draw(st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3))]
        starts.append(len(row))
        row += draw(st.permutations(big + [-v for v in big] + rest))
    return np.array([row]), starts


@settings(max_examples=200, deadline=None)
@given(cancelling())
def test_segment_fsums_match_fsum_under_cancellation(case):
    assert_matches_fsum(*case)


def test_segment_fsums_fall_back_only_near_a_tie(monkeypatch):
    terms = np.random.default_rng(7).standard_normal((300, 253)) * np.logspace(-12, 0, 253)
    starts = np.flatnonzero(np.tril_indices(22)[1] == 0)
    ends = list(starts[1:]) + [terms.shape[1]]
    want = [math.fsum(terms[:, a:b].ravel().tolist()) for a, b in zip(starts, ends)]

    fsum, fallbacks = math.fsum, []

    def counting_fsum(values):
        if isinstance(values, list):  # the fallback; the certified path passes tuples
            fallbacks.append(values)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    # exactly 1 + 2^-53, a tie: tau - delta and tau + delta round apart
    assert _segment_fsums(np.array([[1.0, 2.0**-53]]), np.array([0])).tolist() == [1.0]
    assert fallbacks == [[1.0, 2.0**-53]]
    assert _segment_fsums(terms, starts).tolist() == want
    assert len(fallbacks) == 1


# ---------------------------------------------------------------------------
# moments against the per-order reference
# ---------------------------------------------------------------------------


def reference_binomial_sum(raw, center, kmax):
    """The binomial scatter one order at a time, one math.fsum per moment."""
    cpow = center[:, None] ** np.arange(kmax + 1)
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        comb = np.array([float(math.comb(k, i)) for i in range(k + 1)])
        out[k] = math.fsum((comb * cpow[:, k::-1] * raw[:, : k + 1]).ravel().tolist())
    return out


def reference_long_division(iA, iB, iC, D0, D2, opi):
    """Long division one order at a time, one column step per quotient term."""
    nd, kmax = iA.shape
    poly, const = np.empty((nd, kmax)), np.empty((nd, kmax))
    for k in range(1, kmax + 1):
        rem = np.zeros((nd, k + 2))
        rem[:, k - 1 :] = np.stack((iA[:, k - 1], iB[:, k - 1], iC[:, k - 1]), axis=1)
        quot = np.zeros((nd, k))
        for j in range(k + 1, 1, -1):
            quot[:, j - 2] = rem[:, j] / D2
            rem[:, j - 2] -= D0 * quot[:, j - 2]
        poly[:, k - 1] = [math.fsum(row) for row in (quot * opi[:, 1 : k + 1]).tolist()]
        const[:, k - 1] = rem[:, 0]
    return poly, const


def parity_models(corpus):
    if corpus == "atoms":
        rng = np.random.default_rng(20260810)
        for _ in range(8):
            data, transform, _ = random_selected_data(rng, atoms=True)
            yield fit_cubic(data, transform=transform)
            yield fit_rational(data, transform=transform)
    elif corpus == "series-division":
        yield fit_rational(diagonal_data(6))  # series pieces only
        data = MonotoneData(x=np.array([0.0, 0.3, 0.6, 1.0]), y=np.array([0.0, 0.0, 1.0, 1.0]))
        yield fit_rational(data)  # one division piece
        yield fit_cubic(data)
    else:
        values = sample(parse_model(SYNTHETIC_MODEL), 200_000, seed=5).values
        transform, cdf = fit_transform(values, default_delta(values))
        data = select_points(cdf, 45)
        yield fit_cubic(data, transform=transform)
        yield fit_rational(data, transform=transform)


@pytest.mark.parametrize("corpus", ["atoms", "series-division", "synthetic-2e5"])
def test_moments_match_per_order_reference(monkeypatch, corpus):
    models = list(parity_models(corpus))
    got = [[moments(model, k).tobytes() for k in range(22)] for model in models]
    monkeypatch.setattr(moments_module, "_binomial_sum", reference_binomial_sum)
    monkeypatch.setattr(moments_module, "_long_division", reference_long_division)
    want = [[moments(model, k).tobytes() for k in range(22)] for model in models]
    assert got == want
