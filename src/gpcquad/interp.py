"""Monotone piecewise CDF models and their densities.

Two fitting schemes over the same selected points:

* piecewise cubic Hermite with parabolic slope estimates clamped into the
  monotone box (slopes in [0, 3*min of adjacent chord slopes]);
* piecewise rational quadratic (quadratic over quadratic) with slopes from
  a geometric mean of adjacent chord slopes, monotone whenever slopes >= 0.

Both produce a CDF that is 0 left of the first knot, 1 right of the last,
continuously differentiable in between, with a non-negative density.

A model stores only its knots, knot values and knot slopes. Each variant
has one CDF kernel and one density kernel per piece (`_piece_cdf`,
`_piece_pdf`), written in plain arithmetic so that the same code evaluates
a scalar or an array of (piece, x) pairs; evaluation, validation, inversion
and the moment oracle all go through them. Rational pieces are evaluated in
the Bernstein-weighted local form, whose terms are all non-negative; the
global monomial form loses roughly (interval length)^-2 worth of precision
on narrow intervals and cannot meet the knot-interpolation tolerances.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ecdf import MonotoneData, TransformParams
from .errors import InvariantViolation

__all__ = [
    "DensityModel",
    "PlateauWarning",
    "parabolic_slopes",
    "project_slopes",
    "geometric_mean_slopes",
    "fit_cubic",
    "fit_rational",
    "cdf_eval",
    "pdf_eval",
    "cdf_original",
    "pdf_original",
    "inverse_cdf",
    "draw_samples",
    "validate_model",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 2

IDENTITY_TRANSFORM = TransformParams(a=0.0, b=1.0, delta=1e-3)


class PlateauWarning(UserWarning):
    """Inverse CDF hit the interior of a flat stretch; midpoint returned."""


@dataclass(frozen=True)
class DensityModel:
    """A fitted piecewise CDF/PDF pair on [x_1, x_n] plus its sample transform.

    The knots (x, y) and the knot slopes determine every piece; piece k
    spans [x[k], x[k+1]]. Immutable; safe for concurrent evaluation.
    """

    variant: str
    x: np.ndarray
    y: np.ndarray
    slopes: np.ndarray
    transform: TransformParams

    @property
    def n(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------


def _chords(data: MonotoneData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dx = np.diff(data.x)
    if not np.all(dx > 0):
        raise InvariantViolation("abscissae must be strictly increasing")
    dy = np.diff(data.y)
    return dx, dy, dy / dx


def parabolic_slopes(data: MonotoneData) -> np.ndarray:
    """Second-order derivative estimates at the knots.

    Interior knots get the chord average weighted by opposite interval
    widths; the ends get the one-sided three-point formula.
    """
    n = data.n
    if n < 3:
        raise InvariantViolation(f"need at least 3 points, got {n}")
    x = data.x
    dx, _, s = _chords(data)
    d = np.empty(n)
    d[1:-1] = (s[1:] * dx[:-1] + s[:-1] * dx[1:]) / (x[2:] - x[:-2])
    d[0] = (s[0] * (2 * dx[0] + dx[1]) - s[1] * dx[0]) / (x[2] - x[0])
    d[-1] = (s[-1] * (2 * dx[-1] + dx[-2]) - s[-2] * dx[-1]) / (x[-1] - x[-3])
    return d


def project_slopes(data: MonotoneData, raw: np.ndarray) -> np.ndarray:
    """Clamp raw slope estimates into [0, 3*min(adjacent chord slopes)].

    A knot touching a flat interval gets slope 0. The clamped slopes keep
    every cubic Hermite piece non-decreasing.
    """
    n = data.n
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (n,):
        raise InvariantViolation(f"raw slopes must have length {n}")
    _, _, s = _chords(data)
    left = np.concatenate(([s[0]], s))    # s_{k-1} with s_0 = s_1
    right = np.concatenate((s, [s[-1]]))  # s_k with s_n = s_{n-1}
    out = np.where(
        left * right > 0,
        np.minimum(np.maximum(0.0, raw), 3.0 * np.minimum(left, right)),
        0.0,
    )
    return out


def geometric_mean_slopes(data: MonotoneData) -> np.ndarray:
    """Knot slopes as geometric means of adjacent chord slopes.

    The exponent pair sums to one; the ends use the chord across the two
    outer intervals with a negative exponent. Any zero chord in the mean
    (or a non-finite result from the one-sided forms) collapses to slope 0,
    which keeps the rational pieces monotone.
    """
    n = data.n
    if n < 3:
        raise InvariantViolation(f"need at least 3 points, got {n}")
    x, y = data.x, data.y
    _, _, s = _chords(data)

    def power_pair(b1, e1, b2, e2):
        if b1 <= 0.0 or b2 <= 0.0:
            return 0.0
        try:
            v = float(b1) ** float(e1) * float(b2) ** float(e2)
        except OverflowError:
            return 0.0
        return v if math.isfinite(v) and v > 0.0 else 0.0

    d = np.empty(n)
    # on Python floats: the same IEEE operations as on np.float64, unboxed
    xl, sl = x.tolist(), s.tolist()
    spans = (x[2:] - x[:-2]).tolist()
    d[1:-1] = [
        power_pair(s0, (x2 - x1) / w, s1, (x1 - x0) / w)
        for x0, x1, x2, s0, s1, w in zip(xl, xl[1:], xl[2:], sl, sl[1:], spans)
    ]
    s31 = (y[2] - y[0]) / (x[2] - x[0])
    d[0] = power_pair(
        s[0], (x[2] - x[0]) / (x[2] - x[1]), s31, (x[0] - x[1]) / (x[2] - x[1])
    )
    snn2 = (y[-1] - y[-3]) / (x[-1] - x[-3])
    d[-1] = power_pair(
        s[-1], (x[-1] - x[-3]) / (x[-2] - x[-3]), snn2, (x[-2] - x[-1]) / (x[-2] - x[-3])
    )
    return d


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def fit_cubic(data: MonotoneData, transform: TransformParams | None = None) -> DensityModel:
    """Monotone piecewise cubic CDF through the selected points."""
    data.validate()
    model = DensityModel(
        variant="cubic",
        x=data.x.copy(),
        y=data.y.copy(),
        slopes=project_slopes(data, parabolic_slopes(data)),
        transform=transform or IDENTITY_TRANSFORM,
    )
    validate_model(model)
    return model


def fit_rational(data: MonotoneData, transform: TransformParams | None = None) -> DensityModel:
    """Monotone piecewise rational quadratic CDF through the selected points."""
    data.validate()
    model = DensityModel(
        variant="rational",
        x=data.x.copy(),
        y=data.y.copy(),
        slopes=geometric_mean_slopes(data),
        transform=transform or IDENTITY_TRANSFORM,
    )
    validate_model(model)
    return model


def _cubic_monomial(model: DensityModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-piece (c2, c3, c4) of the cubic y_k + c2 u + c3 u^2 + c4 u^3 with
    u = x - x_k. Only rising pieces use them: a flat piece is the constant y_k."""
    dx = np.diff(model.x)
    s = np.diff(model.y) / dx
    d0, d1 = model.slopes[:-1], model.slopes[1:]
    return d0, (3.0 * s - 2.0 * d0 - d1) / dx, (d0 + d1 - 2.0 * s) / dx**2


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _piece_index(model: DensityModel, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(model.x, x, side="right") - 1
    return np.clip(idx, 0, model.n - 2)


def _piece_terms(model: DensityModel, k, x):
    """(t, y0, y1, d0, d1, h) of piece k at x, with t = (x - x_k)/h."""
    x0 = model.x[k]
    h = model.x[k + 1] - x0
    return (x - x0) / h, model.y[k], model.y[k + 1], model.slopes[k], model.slopes[k + 1], h


def _piece_cdf(model: DensityModel, k, x):
    """CDF of the rising piece k at x, whichever piece x lies in.

    k and x are scalars or equal-shape arrays. Cubic pieces use the
    Hermite-basis form, which is exact at the knots (the monomial form loses
    ~eps*(chord slope) there, which matters on steep ramps). Rational pieces
    use the Bernstein-weighted form, whose terms are all non-negative. Flat
    pieces are the caller's to mask: the rational form divides by their
    zero chord slope.
    """
    t, y0, y1, d0, d1, h = _piece_terms(model, k, x)
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


def _piece_pdf(model: DensityModel, k, x):
    """Density of the rising piece k at x: the derivative of `_piece_cdf`."""
    t, y0, y1, d0, d1, h = _piece_terms(model, k, x)
    om = 1.0 - t
    s = (y1 - y0) / h
    if model.variant == "cubic":
        return d0 * om * (1.0 - 3.0 * t) + 6.0 * s * t * om + d1 * t * (3.0 * t - 2.0)
    v = (d0 + d1) / s
    den = om**2 + v * t * om + t * t
    return (d0 * om**2 + 2.0 * s * t * om + d1 * t * t) / den**2


def _on_rising_pieces(kernel, model: DensityModel, k: np.ndarray, x: np.ndarray, fill):
    """kernel(model, k, x) where piece k rises, `fill` where it is flat."""
    out = np.array(fill, dtype=float)
    rising = model.y[k + 1] != model.y[k]
    out[rising] = kernel(model, k[rising], x[rising])
    return out


def _eval_points(model: DensityModel, x):
    """(scalar, x, k, inside): whether `x` is a scalar, `x` as an array of
    at least one dimension, the piece of each point, and the points clipped
    to the support, where the piece kernels stay finite (at -inf or -1e300
    they overflow). A NaN raises `ValueError` naming its (flat) index."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nan = np.isnan(x)
    if nan.any():
        raise ValueError(f"cannot evaluate at NaN: x is nan at index {int(np.argmax(nan))}")
    return scalar, x, _piece_index(model, x), np.clip(x, model.x[0], model.x[-1])


def cdf_eval(model: DensityModel, x):
    """CDF in the normalized coordinate: 0 left of the support, 1 right of it.
    A NaN in `x` raises ValueError."""
    scalar, x, idx, inside = _eval_points(model, x)
    out = _on_rising_pieces(_piece_cdf, model, idx, inside, model.y[idx])
    out = np.where(x < model.x[0], 0.0, out)
    out = np.where(x > model.x[-1], 1.0, out)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def pdf_eval(model: DensityModel, x):
    """Density in the normalized coordinate: derivative of the CDF, >= 0,
    0 outside the support. Sub-epsilon negative roundoff is clamped to 0.
    A NaN in `x` raises ValueError."""
    scalar, x, idx, inside = _eval_points(model, x)
    out = _on_rising_pieces(_piece_pdf, model, idx, inside, np.zeros(x.shape))
    out = np.where((x < model.x[0]) | (x > model.x[-1]), 0.0, out)
    out = np.maximum(out, 0.0)
    return float(out[0]) if scalar else out


def cdf_original(model: DensityModel, xhat):
    """CDF of the original (pre-transform) variable."""
    return cdf_eval(model, model.transform.normalize(xhat))


def pdf_original(model: DensityModel, xhat):
    """Density of the original variable: (1/b) * pdf((xhat - a)/b)."""
    return pdf_eval(model, model.transform.normalize(xhat)) / model.transform.b


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def _horner(t: np.ndarray, coeffs) -> np.ndarray:
    """coeffs[0] + coeffs[1] t + coeffs[2] t^2 + ..., in one new array."""
    out = t * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        out += c
        out *= t
    out += coeffs[0]
    return out


def _newton_step(t: np.ndarray, g, dg) -> np.ndarray:
    """One Newton step, in place on t, towards the root in [0, 1] of the
    polynomial with coefficients g, whose derivative has coefficients dg.
    No step where the derivative is not positive; t stays in [0, 1]."""
    step = _horner(t, g)
    der = _horner(t, dg)
    der[der <= 0.0] = np.inf
    step /= der
    t -= step
    return np.clip(t, 0.0, 1.0, out=t)


def _cubic_root(model: DensityModel, k: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Newton on rising cubic pieces k, in t = (x - x_k)/h, from the chord
    root, on g(t) = a t + (3 - 2a - b) t^2 + (a + b - 2) t^3 =
    (F - y_k)/(y_{k+1} - y_k), with a, b the knot slopes over the chord
    slope: three steps for every target, then more for the few whose CDF
    residual is still above 1e-14, so that `_polish` only confirms the start
    in one pass."""
    h = model.x[k + 1] - model.x[k]
    y0 = model.y[k]
    dy = model.y[k + 1] - y0
    a, b = h * model.slopes[k] / dy, h * model.slopes[k + 1] / dy
    t = (target - y0) / dy  # the chord root, Newton's start
    g = (-t, a, 3.0 - 2.0 * a - b, a + b - 2.0)  # g(t) - z
    dg = (a, 2.0 * g[2], 3.0 * g[3])
    for _ in range(3):
        _newton_step(t, g, dg)
    # the few that started far from their root (three steps leave some
    # at 1e-9): on until the residual is a tenth of `_polish`'s 1e-13
    far = np.flatnonzero(np.abs(_horner(t, g)) * dy > 1e-14)
    for _ in range(10):
        if not far.size:
            break
        g_far = [c[far] for c in g]
        t[far] = _newton_step(t[far], g_far, [c[far] for c in dg])
        far = far[np.abs(_horner(t[far], g_far)) * dy[far] > 1e-14]
    return t


def _rational_root(model: DensityModel, k: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The closed-form root in theta = (x - x_k)/h of N(x) - target*D(x) = 0
    on rising rational pieces k, clipped to [0, 1]; 0.5 where none is found
    (the polish recovers). Each knot array is dropped once it is used, so
    that no more than about a dozen arrays as long as k are alive at once."""
    x0 = model.x[k]
    h = model.x[k + 1] - x0
    y0, y1 = model.y[k], model.y[k + 1]
    d0, d1 = model.slopes[k], model.slopes[k + 1]
    s = (y1 - y0) / h
    w = (y1 * d0 + y0 * d1) / s
    v = (d0 + d1) / s
    del x0, h, d0, d1, s
    # Bernstein -> power basis in theta for (N - z*D)(theta) = 0
    r0 = y0 - target
    rm = w - target * v
    r1 = y1 - target
    del y0, y1, w, v
    a = r0 - rm + r1
    b = rm - 2.0 * r0
    c = r0
    del rm, r1
    theta = np.full(target.shape, 0.5)
    linear = (a == 0.0) & (b != 0.0)
    theta[linear] = -c[linear] / b[linear]
    disc = b * b - 4.0 * a * c
    quad = np.flatnonzero((a != 0.0) & (disc >= 0.0))
    q = -0.5 * (b[quad] + np.copysign(np.sqrt(disc[quad]), b[quad]))

    def on_piece(th):
        return (-1e-12 <= th) & (th <= 1.0 + 1e-12)

    root = q / a[quad]
    other = ~on_piece(root)  # q != 0 here: q = 0 makes the first root 0
    root[other] = c[quad][other] / q[other]
    theta[quad] = np.where(on_piece(root), root, 0.5)
    return np.minimum(np.maximum(theta, 0.0), 1.0)


def _newton_start(model: DensityModel, k: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Starting points on rising pieces k: the converged root of each cubic
    piece's own polynomial, or the closed-form root of each rational piece."""
    root = (_cubic_root if model.variant == "cubic" else _rational_root)(model, k, target)
    x0 = model.x[k]
    return x0 + root * (model.x[k + 1] - x0)


def _polish(model: DensityModel, k: np.ndarray, target: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bracketed Newton on the piece CDFs, converging in the y-residual.

    Stopping on the residual (not the x-interval) keeps the round trip
    cdf(inverse_cdf(y)) = y tight even where the density is steep; an
    element stops early when its bracket shrinks to the float lattice
    because its residual cannot improve.
    """
    lo, hi = model.x[k], model.x[k + 1]
    x = np.minimum(np.maximum(x, lo), hi)
    todo = slice(None)  # the first pass takes every element, without copies
    for _ in range(100):
        xa = x[todo]
        val = _piece_cdf(model, k[todo], xa) - target[todo]
        open_ = np.abs(val) > 1e-13
        todo = np.flatnonzero(open_) if isinstance(todo, slice) else todo[open_]
        xa, val = xa[open_], val[open_]
        if not todo.size:
            break
        above = val > 0.0
        hi[todo[above]] = xa[above]
        lo[todo[~above]] = xa[~above]
        der = _piece_pdf(model, k[todo], xa)
        lo_t, hi_t = lo[todo], hi[todo]
        nxt = 0.5 * (lo_t + hi_t)
        slope = np.flatnonzero(der > 0.0)
        newton = xa[slope] - val[slope] / der[slope]
        inside = (lo_t[slope] < newton) & (newton < hi_t[slope])
        nxt[slope[inside]] = newton[inside]
        x[todo] = nxt
        todo = todo[hi_t - lo_t > 4e-16 * np.maximum(1.0, np.abs(lo_t))]
    return x


def _inverse(model: DensityModel, u: np.ndarray, out: np.ndarray):
    """`inverse_cdf` of the 1-D targets u in [0, 1] into `out`, without the
    warning.

    Returns `(plateaus, example)`: the number of targets on plateaus and,
    if there are any, `(target, lo, hi)` for the first. Each preimage
    depends on its own target alone, so inverting an array in slices gives
    the same bits as inverting it whole.
    """
    xk, yk = model.x, model.y
    low = u <= yk[0]
    high = u >= yk[-1]
    out[low] = xk[0]
    out[high] = xk[-1]
    j = np.searchsorted(yk, u, side="right") - 1
    at_knot = ~(low | high) & (yk[j] == u)
    knot = np.flatnonzero(at_knot)
    out[knot] = xk[j[knot]]
    first = np.searchsorted(yk, u[knot], side="left")  # first knot at that level
    shared = first < j[knot]
    plateau, first = knot[shared], first[shared]
    example = None
    if plateau.size:
        out[plateau] = 0.5 * (xk[first] + xk[j[plateau]])
        p = plateau[0]
        example = (u[p], xk[first[0]], xk[j[p]])
    # the rest lie strictly inside a rising piece: yk[j] < u < yk[j+1]
    inner = np.flatnonzero(~(low | high | at_knot))
    if inner.size == u.size:
        inner = slice(None)  # all of them, as with uniform draws: no copies
    k, target = j[inner], u[inner]
    out[inner] = _polish(model, k, target, _newton_start(model, k, target))
    return plateau.size, example


def _warn_plateaus(count: int, example) -> None:
    """One PlateauWarning, attributed to the caller of the public function."""
    target, lo, hi = example
    warnings.warn(
        f"{count} target(s) lie on plateaus, e.g. {target} on "
        f"[{lo}, {hi}]; returning plateau midpoints",
        PlateauWarning,
        stacklevel=3,
    )


def inverse_cdf(model: DensityModel, y):
    """Solve p(x) = y on the support, elementwise for an array of targets.

    A scalar target gives a float. For y matching the level of a flat
    stretch the preimage is an interval; its midpoint is returned, with one
    PlateauWarning per call however many targets hit plateaus.

    Each x inside a rising piece meets |cdf(x) - y| <= 1e-13, inside
    criterion 7's 1e-12, unless its bracket shrinks to the float lattice
    first (on a point-mass ramp). Results are deterministic within one
    version; cubic results differ in their last bits from versions that
    started Newton from the chord root.
    """
    shape = np.shape(y)
    u = np.asarray(y, dtype=float).ravel()
    bad = ~((u >= 0.0) & (u <= 1.0))
    if bad.any():
        raise ValueError(f"target CDF value must be in [0,1], got {u[bad][0]}")
    out = np.empty(u.shape)
    plateaus, example = _inverse(model, u, out)
    if plateaus:
        _warn_plateaus(plateaus, example)
    return float(out[0]) if not shape else out.reshape(shape)


# Draws per block in `draw_samples`. The inversion holds up to about 18
# arrays as long as a block (the piece CDF kernel alone up to 14), so 2**12
# doubles (32 KB) keep them under 0.6 MB, and under half an output array
# from 2e5 draws on; 2**13 would hold twice that, and 2**11 costs more in
# per-block overhead than it saves.
_BLOCK = 1 << 12


def draw_samples(model: DensityModel, count: int, seed: int):
    """Inverse-CDF samples, deterministic per seed, in original coordinates.

    The same seed gives the same draws within one version; each draw
    stops at a 1e-13 CDF residual (see `inverse_cdf`), inside criterion
    7's 1e-12. Cubic draws differ in their last bits from earlier versions.

    The uniform targets are drawn, inverted and mapped back `_BLOCK` at a
    time, which consumes the stream as one `count`-long draw does and gives
    the same bits, so the output is the only array as long as the sample.
    Targets on plateaus raise one PlateauWarning for the whole call.
    A `count` that is not a non-negative integer raises ValueError.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    rng = np.random.default_rng(seed)
    a, b = model.transform.a, model.transform.b
    out = np.empty(count)
    plateaus, example = 0, None
    for start in range(0, count, _BLOCK):
        x = out[start : start + _BLOCK]
        hits, first = _inverse(model, rng.uniform(0.0, 1.0, len(x)), x)
        if hits:
            plateaus += hits
            example = example or first
        x *= b  # in place, the bits of a + b*x
        x += a
    if plateaus:
        _warn_plateaus(plateaus, example)
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _cubic_derivative_min(model: DensityModel, rising: np.ndarray) -> np.ndarray:
    """Exact minimum of each rising piece's derivative, a quadratic in u,
    over [0, h]: at both ends and at its stationary point if that is inside."""
    h = np.diff(model.x)[rising]
    c2, c3, c4 = (c[rising] for c in _cubic_monomial(model))
    lo = np.minimum(c2, c2 + h * (2.0 * c3 + 3.0 * c4 * h))
    curved = np.flatnonzero(c4 != 0.0)
    u_star = -c3[curved] / (3.0 * c4[curved])
    inside = (0.0 < u_star) & (u_star < h[curved])
    i, u = curved[inside], u_star[inside]
    lo[i] = np.minimum(lo[i], c2[i] + u * (2.0 * c3[i] + u * 3.0 * c4[i]))
    return lo


def validate_model(model: DensityModel, raise_on_failure: bool = True) -> dict:
    """Recheck the construction invariants; returns the residual report.

    Slope-type residuals are scaled by max(1, |slope|) so the tolerance is
    meaningful for steep near-atom ramps as well as O(1) densities.
    """
    x, y, d = model.x, model.y, model.slopes
    tr = model.transform
    report: dict = {}
    failures = []
    if model.variant not in ("cubic", "rational"):
        failures.append(f"unknown variant {model.variant!r}")
    fields = {"knots_x": x, "knots_y": y, "slopes": d,
              "transform.a": tr.a, "transform.b": tr.b, "transform.delta": tr.delta}
    non_finite = [name for name, value in fields.items() if not np.all(np.isfinite(value))]
    # array arithmetic below needs equal-length 1-D knot data
    if not (np.ndim(x) == np.ndim(y) == np.ndim(d) == 1 and len(x) == len(y) == len(d) >= 2):
        failures.append(
            f"knots_x, knots_y and slopes must be 1-D with one length >= 2, "
            f"got lengths {np.size(x)}, {np.size(y)}, {np.size(d)}"
        )
    elif non_finite:
        failures.append(f"non-finite values in {', '.join(non_finite)}")
    else:
        if not (x[0] == 0.0 and y[0] == 0.0 and x[-1] == 1.0 and y[-1] == 1.0):
            failures.append("endpoints not pinned to (0,0), (1,1)")
        if not np.all(np.diff(x) > 0):
            failures.append("knots not strictly increasing")
        if not np.all(np.diff(y) >= 0):
            failures.append("knot values not non-decreasing")
        if np.any(d < 0):
            failures.append("negative knot slope")
        if not (tr.b > 0 and tr.delta > 0):
            failures.append("invalid transform parameters")

    if not failures:
        # Hermite conditions checked per piece at both of its ends (the
        # public evaluator would hand a shared knot to the next piece); a
        # flat piece is the constant y_k with density 0
        n = model.n
        k = np.arange(n - 1)
        rising = np.diff(y) != 0
        d_lo = np.where(rising, d[:-1], 0.0)
        d_hi = np.where(rising, d[1:], 0.0)
        pdf_lo = _on_rising_pieces(_piece_pdf, model, k, x[:-1], np.zeros(n - 1))
        pdf_hi = _on_rising_pieces(_piece_pdf, model, k, x[1:], np.zeros(n - 1))
        val_res = np.abs(np.concatenate((
            _on_rising_pieces(_piece_cdf, model, k, x[:-1], y[:-1]) - y[:-1],
            _on_rising_pieces(_piece_cdf, model, k, x[1:], y[:-1]) - y[1:],
        )))
        slope_res = np.concatenate((
            np.abs(pdf_lo - d_lo) / np.maximum(1.0, np.abs(d_lo)),
            np.abs(pdf_hi - d_hi) / np.maximum(1.0, np.abs(d_hi)),
        ))
        # C1: density agrees from both sides at every interior knot
        jumps = np.abs(pdf_hi[:-1] - pdf_lo[1:]) / np.maximum(1.0, np.abs(d[1:-1]))
        report["hermite_value_max"] = float(np.max(val_res, initial=0.0))
        report["hermite_slope_max"] = float(np.max(slope_res, initial=0.0))
        report["c1_jump_max"] = float(np.max(jumps, initial=0.0))
        if report["hermite_value_max"] > 1e-12:
            failures.append(f"knot interpolation residual {report['hermite_value_max']:.2e}")
        if report["hermite_slope_max"] > 1e-12:
            failures.append(f"knot slope residual {report['hermite_slope_max']:.2e}")
        if report["c1_jump_max"] > 1e-12:
            failures.append(f"density jump at a knot {report['c1_jump_max']:.2e}")
        # exact per-piece monotonicity, roundoff measured against the
        # piece's own chord slope
        if model.variant == "cubic":
            dmin = _cubic_derivative_min(model, rising)
            chord = np.diff(y)[rising] / np.diff(x)[rising]
            worst_rel = np.min(dmin / np.maximum(1.0, chord), initial=0.0)
            report["derivative_min"] = float(np.min(dmin, initial=0.0))
            if worst_rel < -1e-13:
                failures.append(
                    f"cubic piece has negative derivative (relative {worst_rel:.2e})"
                )
        else:
            report["derivative_min"] = 0.0 if np.all(d >= 0) else float(np.min(d))

    if failures and raise_on_failure:
        raise InvariantViolation("; ".join(failures))
    report["failures"] = failures
    report["ok"] = not failures
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_dict(model: DensityModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "variant": model.variant,
        "transform": {
            "a": model.transform.a,
            "b": model.transform.b,
            "delta": model.transform.delta,
        },
        "knots_x": model.x.tolist(),
        "knots_y": model.y.tolist(),
        "slopes": model.slopes.tolist(),
    }


def model_from_dict(doc: dict) -> DensityModel:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise InvariantViolation(f"unsupported model format version {version!r}")
    try:
        tr = doc["transform"]
        model = DensityModel(
            variant=doc["variant"],
            x=np.asarray(doc["knots_x"], dtype=float),
            y=np.asarray(doc["knots_y"], dtype=float),
            slopes=np.asarray(doc["slopes"], dtype=float),
            transform=TransformParams(*(float(tr[key]) for key in ("a", "b", "delta"))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantViolation(f"malformed model document: {exc}") from exc
    validate_model(model)
    return model


def save_model(model: DensityModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> DensityModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
