"""Monotone piecewise CDF models and their densities.

Two fitting schemes over the same selected points:

* piecewise cubic Hermite with parabolic slope estimates clamped into the
  monotone box (slopes in [0, 3*min of adjacent chord slopes]);
* piecewise rational quadratic (quadratic over quadratic) with slopes from
  a geometric mean of adjacent chord slopes, monotone whenever slopes >= 0.

Both produce a CDF that is 0 left of the first knot, 1 right of the last,
continuously differentiable in between, with a non-negative density.

A model holds its knots, knot values and knot slopes, and the table of its
pieces' constants (`_pieces`) that its check derives from them once; the
evaluators, the inversion and the moments all read that table. Each variant
has one CDF kernel and one density kernel (`_cdf_t`, `_pdf_t`), written in
plain arithmetic so that the same code evaluates a scalar or an array of
(piece k, t = (x - x_k)/h) pairs; evaluation and the moment oracle go
through them, the inversion through the CDF kernel. Validation evaluates
neither: both forms meet their knot values and slopes exactly. Rational
pieces are evaluated in the Bernstein-weighted local form, whose terms are
all non-negative; the global monomial form loses roughly (interval
length)^-2 worth of precision on narrow intervals and would not meet the
knots exactly.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .ecdf import MonotoneData, TransformParams, _reject_nan
from .errors import InvariantViolation, integer, read_only
from .files import from_document, json_numbers, read_json, write_json

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


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no truth value or hash
class DensityModel:
    """A fitted piecewise CDF/PDF pair on [x_1, x_n] plus its sample transform.

    The knots (x, y) and the knot slopes determine every piece; piece k
    spans [x[k], x[k+1]]. Each array is a read-only float copy. Building one
    (`dataclasses.replace`, `copy` and `pickle` included) runs
    `validate_model`, which raises `InvariantViolation` unless it passes,
    and keeps its report as the read-only mapping `checks`; the check also
    derives `pieces` from the knots. Immutable; safe for concurrent
    evaluation.
    """

    variant: str
    x: np.ndarray
    y: np.ndarray
    slopes: np.ndarray
    transform: TransformParams
    checks: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("x", "y", "slopes"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        report = validate_model(self)  # passed, so no failures: a tuple keeps them read-only
        object.__setattr__(self, "checks", MappingProxyType({**report, "failures": ()}))

    def __reduce__(self):
        return type(self), (self.variant, self.x, self.y, self.slopes, self.transform)

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property  # stored in the instance __dict__, which a frozen dataclass allows
    def pieces(self) -> _Pieces:
        """The table of each piece's constants (`_pieces`), built once, by the
        check; its arrays are read-only."""
        return _pieces(self)


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------


def _chords(data: MonotoneData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dy, dy / dx) of each piece, with dx > 0 as a MonotoneData has it;
    `InvariantViolation` names the first piece whose chord slope overflows,
    as `validate_model` does."""
    dx = np.diff(data.x)
    dy = np.diff(data.y)
    with np.errstate(over="ignore"):
        s = dy / dx
    if not np.all(np.isfinite(s)):
        j, x = int(np.argmin(np.isfinite(s))), data.x
        raise InvariantViolation(f"piece {j} on [{float(x[j])}, {float(x[j + 1])}] has a non-finite chord slope")
    return dx, dy, s


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
    with np.errstate(over="ignore"):  # an inf product or bound clamps as a huge one would
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
    # on Python floats: the same IEEE operations as on np.float64, unboxed,
    # and one that overflows gives inf without a warning
    xl, yl, sl = x.tolist(), y.tolist(), s.tolist()
    spans = (x[2:] - x[:-2]).tolist()
    d[1:-1] = [
        power_pair(s0, (x2 - x1) / w, s1, (x1 - x0) / w)
        for x0, x1, x2, s0, s1, w in zip(xl, xl[1:], xl[2:], sl, sl[1:], spans)
    ]
    s31 = (yl[2] - yl[0]) / (xl[2] - xl[0])
    d[0] = power_pair(
        sl[0], (xl[2] - xl[0]) / (xl[2] - xl[1]), s31, (xl[0] - xl[1]) / (xl[2] - xl[1])
    )
    snn2 = (yl[-1] - yl[-3]) / (xl[-1] - xl[-3])
    d[-1] = power_pair(
        sl[-1], (xl[-1] - xl[-3]) / (xl[-2] - xl[-3]), snn2, (xl[-2] - xl[-1]) / (xl[-2] - xl[-3])
    )
    return d


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def fit_cubic(data: MonotoneData, transform: TransformParams | None = None) -> DensityModel:
    """Monotone piecewise cubic CDF through the selected points."""
    return DensityModel(
        variant="cubic",
        x=data.x,
        y=data.y,
        slopes=project_slopes(data, parabolic_slopes(data)),
        transform=transform or IDENTITY_TRANSFORM,
    )


def fit_rational(data: MonotoneData, transform: TransformParams | None = None) -> DensityModel:
    """Monotone piecewise rational quadratic CDF through the selected points."""
    return DensityModel(
        variant="rational",
        x=data.x,
        y=data.y,
        slopes=geometric_mean_slopes(data),
        transform=transform or IDENTITY_TRANSFORM,
    )


def _cubic_monomial(pieces: _Pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-piece (c2, c3, c4) of the cubic y_k + c2 u + c3 u^2 + c4 u^3 with
    u = x - x_k. Only rising pieces use them: a flat piece is the constant y_k."""
    h, s, d0, d1 = pieces.h, pieces.s, pieces.d0, pieces.d1
    return d0, (3.0 * s - 2.0 * d0 - d1) / h, (d0 + d1 - 2.0 * s) / h**2


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


_Pieces = namedtuple("_Pieces", "variant x0 x1 h y0 y1 dy d0 d1 s hd0 hd1 w v")


def _pieces(model: DensityModel) -> _Pieces:
    """Each piece's constants: piece k spans [x0[k], x1[k]], of width h,
    from y0 to y1 (a rise of dy), with knot slopes d0, d1 and chord slope
    s. hd0 = h d0 and hd1 = h d1 weigh the cubic Hermite form;
    w = (y1 d0 + y0 d1)/s and v = (d0 + d1)/s are the middle Bernstein
    weights of the rational form, kept for cubic models too, whose moment
    oracle places breakpoints by v. Flat pieces (s = 0) get no finite w, v."""
    x, y, d = model.x, model.y, model.slopes
    x0, x1, y0, y1, d0, d1 = x[:-1], x[1:], y[:-1], y[1:], d[:-1], d[1:]
    h, dy = x1 - x0, y1 - y0
    with np.errstate(all="ignore"):
        s = dy / h
        w = (y1 * d0 + y0 * d1) / s
        v = (d0 + d1) / s
    h, dy, s, hd0, hd1, w, v = map(read_only, (h, dy, s, h * d0, h * d1, w, v))
    return _Pieces(model.variant, x0, x1, h, y0, y1, dy, d0, d1, s, hd0, hd1, w, v)


def _to_t(pieces: _Pieces, k, x):
    return (x - pieces.x0[k]) / pieces.h[k]


def _cdf_t(pieces: _Pieces, k, t):
    """CDF of the rising piece k at the piece coordinate t.

    k and t are scalars or equal-shape arrays. Cubic pieces use the
    Hermite-basis form, which is exact at the knots (the monomial form loses
    ~eps*(chord slope) there, which matters on steep ramps). Rational pieces
    use the Bernstein-weighted form, whose terms are all non-negative. Each
    constant is gathered where it is used, so that few arrays as long as t
    are alive at once.
    """
    om = 1.0 - t
    if pieces.variant == "cubic":
        return (
            pieces.y0[k] * (1.0 + 2.0 * t) * om * om
            + pieces.hd0[k] * t * om * om
            + pieces.y1[k] * t * t * (3.0 - 2.0 * t)
            + pieces.hd1[k] * t * t * (t - 1.0)
        )
    num = pieces.y0[k] * om**2 + pieces.w[k] * t * om + pieces.y1[k] * t * t
    return num / (om**2 + pieces.v[k] * t * om + t * t)


def _pdf_t(pieces: _Pieces, k, t):
    """Density of the rising piece k at t: the derivative of `_cdf_t` in x.
    A rational denominator above about 1e154 (a weight v as large, next to
    a piece narrower than about 1e-154) has no finite square: num / den / den
    there."""
    om = 1.0 - t
    if pieces.variant == "cubic":
        return (
            pieces.d0[k] * om * (1.0 - 3.0 * t)
            + 6.0 * pieces.s[k] * t * om
            + pieces.d1[k] * t * (3.0 * t - 2.0)
        )
    num = pieces.d0[k] * om**2 + 2.0 * pieces.s[k] * t * om + pieces.d1[k] * t * t
    den = om**2 + pieces.v[k] * t * om + t * t
    with np.errstate(over="ignore"):
        square = den**2
    return np.where(np.isinf(square), num / den / den, num / square)


def _on_rising_pieces(kernel, pieces: _Pieces, k: np.ndarray, t: np.ndarray, fill):
    """kernel(pieces, k, t) where piece k rises, `fill` where it is flat."""
    out = np.array(fill, dtype=float)
    rising = (pieces.y1 != pieces.y0)[k]
    out[rising] = kernel(pieces, k[rising], t[rising])
    return out


def _eval_points(model: DensityModel, x):
    """(scalar, x, pieces, k, t): whether `x` is 0-d, `x` as an array of at
    least one dimension, the piece table, each point's piece k and its t there
    after clipping to the support, where the kernels stay finite (at -inf or
    -1e300 they overflow). A NaN raises `ValueError` naming its (flat) index."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(_reject_nan(x))
    pieces = model.pieces
    k = np.clip(np.searchsorted(model.x, x, side="right") - 1, 0, model.n - 2)
    return scalar, x, pieces, k, _to_t(pieces, k, np.clip(x, model.x[0], model.x[-1]))


def cdf_eval(model: DensityModel, x):
    """CDF in the normalized coordinate: 0 left of the support, 1 right of it.
    A NaN in `x` raises ValueError."""
    scalar, x, pieces, k, t = _eval_points(model, x)
    out = _on_rising_pieces(_cdf_t, pieces, k, t, pieces.y0[k])
    out = np.where(x < model.x[0], 0.0, out)
    out = np.where(x > model.x[-1], 1.0, out)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def pdf_eval(model: DensityModel, x):
    """Density in the normalized coordinate: derivative of the CDF, >= 0,
    0 outside the support. Sub-epsilon negative roundoff is clamped to 0.
    A NaN in `x` raises ValueError."""
    scalar, x, pieces, k, t = _eval_points(model, x)
    out = _on_rising_pieces(_pdf_t, pieces, k, t, np.zeros(x.shape))
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


def _cubic_root(pieces: _Pieces, k: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Newton on rising cubic pieces k, in t = (x - x_k)/h, from the chord
    root, on g(t) = a t + (3 - 2a - b) t^2 + (a + b - 2) t^3 =
    (F - y_k)/(y_{k+1} - y_k), with a, b the knot slopes over the chord
    slope: three steps for every target, then more for the few whose CDF
    residual is still above 1e-14, so that `_polish` only confirms the start
    in one pass."""
    dy = pieces.dy[k]
    a, b = pieces.hd0[k] / dy, pieces.hd1[k] / dy
    t = (target - pieces.y0[k]) / dy  # the chord root, Newton's start
    g = (-t, a, 3.0 - 2.0 * a - b, a + b - 2.0)  # g(t) - z
    dg = (a, 2.0 * g[2], 3.0 * g[3])
    del b
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


@np.errstate(divide="ignore", invalid="ignore")
def _rational_root(pieces: _Pieces, k: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The root in t = (x - x_k)/h of g = N - z D on rising rational pieces
    k, z the target, clipped to [0, 1]; 0.5 where roundoff leaves no finite
    root. `_polish` then bisects any start whose CDF residual is above 1e-13.

    In the power basis g = a t^2 + b t + c, with g(0) = y_k - z < 0 <
    g(1) = y_{k+1} - z, so g crosses zero upwards once in (0, 1), where
    g' = 2 a t + b = +sqrt(b^2 - 4 a c). With q = -(b + sign(b) sqrt(...))/2,
    whose two terms share a sign, that root is q/a for b < 0 and c/q
    otherwise. a, b and c are first scaled by one power of two, which is
    exact bar underflow and leaves the roots as they are, so that the
    largest lies in [1/2, 1) and b^2 cannot overflow.
    """
    # Bernstein -> power basis in t for (N - z*D)(t)
    r0 = pieces.y0[k] - target
    rm = pieces.w[k] - target * pieces.v[k]
    a = r0 - rm + (pieces.y1[k] - target)
    b = rm - 2.0 * r0
    del rm
    scale = -np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(r0)))[1]
    a, b, c = (np.ldexp(v, scale) for v in (a, b, r0))
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    t = np.where(b < 0.0, q / a, c / q)
    t[~np.isfinite(t)] = 0.5
    return np.minimum(np.maximum(t, 0.0), 1.0)


def _polish(pieces: _Pieces, k: np.ndarray, target: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Bisection on the piece CDFs from the start t on pieces k; returns x,
    in t's buffer.

    Each x meets |cdf(x) - y| <= 1e-13, or is the low end of a bracket
    whose high end is the next float, so that the CDF crosses y between x's
    two neighbouring floats (on a point-mass ramp). A start that meets the
    residual keeps its bits, as on every smooth fit. The brackets start at
    the knots themselves, not x_k + h, which can differ from x_{k+1} in the
    last bit.

    The bisection is over the float lattice: non-negative floats order as
    their int64 bit patterns, so the midpoint of a bracket's two patterns
    lies strictly between its ends until they are adjacent, and each step
    leaves at most ceil(n/2) of a bracket's n lattice steps. A bracket in
    [0, 1] spans at most 0x3FF0000000000000 < 2**62 steps (a -0.0 knot is
    taken as +0.0, whose pattern is 0), so after the start's pass 62
    halvings leave every bracket two adjacent floats: the loop's 63 passes
    close every element.
    """
    lo, hi = pieces.x0[k] + 0.0, pieces.x1[k]  # -0.0 + 0.0 is +0.0
    x = np.add(np.multiply(t, pieces.h[k], out=t), lo, out=t)  # the bits of x_k + t h
    np.clip(x, lo, hi, out=x)
    todo = slice(None)  # the first pass takes every element, without copies
    for _ in range(63):
        xa, kt = x[todo], k[todo]
        val = _cdf_t(pieces, kt, _to_t(pieces, kt, xa)) - target[todo]
        open_ = np.abs(val) > 1e-13
        todo = np.flatnonzero(open_) if isinstance(todo, slice) else todo[open_]
        xa, val = xa[open_], val[open_]
        if not todo.size:
            break
        above = val > 0.0
        hi[todo[above]] = xa[above]
        lo[todo[~above]] = xa[~above]
        lo_b, hi_b = lo[todo].view(np.int64), hi[todo].view(np.int64)
        x[todo] = ((lo_b + hi_b) >> 1).view(np.float64)
        todo = todo[hi_b - lo_b > 1]
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
    root = _cubic_root if model.variant == "cubic" else _rational_root
    pieces = model.pieces
    out[inner] = _polish(pieces, k, target, root(pieces, k, target))
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
    criterion 7's 1e-12, or, on a point-mass ramp where one float step in x
    moves the CDF by more than that, y lies between the CDF at x's two
    neighbouring floats. Results are deterministic within one version.
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


# Draws per block in `draw_samples`. A block's draws and their inversion
# hold up to about 14 arrays as long as the block (each piece kernel 5 of
# its own), so 2**12 doubles (32 KB) keep them under 0.5 MB, under a third
# of an output array from 2e5 draws on; 2**13 would hold over half of one,
# and 2**11 costs more in per-block overhead than it saves.
_BLOCK = 1 << 12


def draw_samples(model: DensityModel, count: int, seed: int):
    """Inverse-CDF samples, deterministic per seed, in original coordinates.

    The same seed gives the same draws within one version. Each draw is
    within 1e-13 of its target in CDF, inside criterion 7's 1e-12, or within
    one float of its root on a point-mass ramp (see `inverse_cdf`).

    The uniform targets are drawn, inverted and mapped back `_BLOCK` at a
    time, which consumes the stream as one `count`-long draw does and gives
    the same bits, so the output is the only array as long as the sample.
    Targets on plateaus raise one PlateauWarning for the whole call.
    A `count` or `seed` that is not a non-negative integer raises ValueError.
    """
    count = integer(count, "count", 0)
    rng = np.random.default_rng(integer(seed, "seed", 0))
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


def _cubic_derivative_min(pieces: _Pieces, rising: np.ndarray, monomial) -> np.ndarray:
    """Exact minimum of each rising piece's derivative, a quadratic in u,
    over [0, h]: at both ends and at its stationary point if that is inside.
    `monomial` is `_cubic_monomial(pieces)`."""
    h = pieces.h[rising]
    c2, c3, c4 = (c[rising] for c in monomial)
    lo = np.minimum(c2, c2 + h * (2.0 * c3 + 3.0 * c4 * h))
    curved = np.flatnonzero(c4 != 0.0)
    u_star = -c3[curved] / (3.0 * c4[curved])
    inside = (0.0 < u_star) & (u_star < h[curved])
    i, u = curved[inside], u_star[inside]
    lo[i] = np.minimum(lo[i], c2[i] + u * (2.0 * c3[i] + u * 3.0 * c4[i]))
    return lo


@np.errstate(all="ignore")
def validate_model(model: DensityModel, raise_on_failure: bool = True) -> dict:
    """The construction invariants, which building a `DensityModel` checks;
    returns the residual report. A `DensityModel` is checked through its own
    `pieces`; any other object whose `x`, `y` and `slopes` are float arrays,
    with a `variant` and a `transform`, gets a table built.

    Each rising piece meets its knot values and slopes exactly, so
    `hermite_value_max` and `hermite_slope_max` read 0 and no kernel is
    evaluated. At t = 0 every term of `_cdf_t` and `_pdf_t` but the y_k (or
    d_k) one has a factor t, at t = 1 every term but the y_{k+1} (or
    d_{k+1}) one a factor 1 - t, and each denominator is exactly 1 at both;
    the constants check below makes every other factor finite (h d is, as
    0 < h <= 1, and a cubic's 6 s, as a finite c4 needs h^2 > 0, so
    s <= 1/h < 1e162), so those terms are zeros. C1 is then a test of the
    slopes: the density jumps by d_k at an interior knot between a rising
    and a flat piece, so d_k must be 0 there, to 1e-12. The jump is scaled
    by max(1, |d_k|) so the tolerance is meaningful for steep near-atom
    ramps as well as O(1) densities. A check that reads NaN fails, and no
    numpy warning leaves the function.
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
        # a DensityModel's own table; a stand-in gets one built
        pieces = model.pieces if isinstance(model, DensityModel) else _pieces(model)
        if not (x[0] == 0.0 and y[0] == 0.0 and x[-1] == 1.0 and y[-1] == 1.0):
            failures.append("endpoints not pinned to (0,0), (1,1)")
        if not np.all(pieces.h > 0):
            failures.append("knots not strictly increasing")
        if not np.all(pieces.dy >= 0):
            failures.append("knot values not non-decreasing")
        if np.any(d < 0):
            failures.append("negative knot slope")
        if not (tr.b > 0 and tr.delta > 0):
            failures.append("invalid transform parameters")
        # the constants the kernels read on a rising piece must be finite: a
        # chord slope dy / h overflows on a piece narrower than about
        # 1e-308 dy, a rational's density term 2 s (`_pdf_t`) on one narrower
        # than about 2e-308 dy, and a cubic's monomial coefficients (the
        # moments' and the derivative check's) on one narrower than about 1e-154
        rising = pieces.dy != 0
        constants = {"chord slope": pieces.s, "weight w": pieces.w, "weight v": pieces.v}
        if model.variant == "cubic":
            monomial = _cubic_monomial(pieces)
            constants["c3"], constants["c4"] = monomial[1:]
        else:
            constants["2 s"] = 2.0 * pieces.s
        unbounded = {name: rising & ~np.isfinite(c) for name, c in constants.items()}
        bad = np.flatnonzero(np.any(list(unbounded.values()), axis=0))
        if not failures and bad.size:
            j = bad[0]
            names = [name for name, mask in unbounded.items() if mask[j]]
            failures.append(
                f"piece {j} on [{float(x[j])}, {float(x[j + 1])}] has a non-finite {', '.join(names)}"
            )

    if not failures:
        # exact at the knots by construction (see above)
        report["hermite_value_max"] = 0.0
        report["hermite_slope_max"] = 0.0
        # C1: the scaled jump |d_k| / max(1, |d_k|) where a rising and a flat piece meet
        jumps = np.minimum(np.abs(d[1:-1][rising[:-1] != rising[1:]]), 1.0)
        report["c1_jump_max"] = float(np.max(jumps, initial=0.0))
        # written so that a NaN residual fails
        if not report["c1_jump_max"] <= 1e-12:
            failures.append(f"density jump at a knot {report['c1_jump_max']:.2e}")
        # exact per-piece monotonicity, roundoff measured against the
        # piece's own chord slope
        if model.variant == "cubic":
            dmin = _cubic_derivative_min(pieces, rising, monomial)
            chord = pieces.s[rising]
            worst_rel = np.min(dmin / np.maximum(1.0, chord), initial=0.0)
            report["derivative_min"] = float(np.min(dmin, initial=0.0))
            if not worst_rel >= -1e-13:
                failures.append(
                    f"cubic piece has negative derivative (relative {worst_rel:.2e})"
                )

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
        "transform": asdict(model.transform),
        "knots_x": model.x.tolist(),
        "knots_y": model.y.tolist(),
        "slopes": model.slopes.tolist(),
    }


def model_from_dict(doc: dict) -> DensityModel:
    def build(doc):
        tr = doc["transform"]
        return DensityModel(
            variant=doc["variant"],
            x=json_numbers(doc["knots_x"], "knots_x"),
            y=json_numbers(doc["knots_y"], "knots_y"),
            slopes=json_numbers(doc["slopes"], "slopes"),
            transform=TransformParams(*(float(json_numbers(tr[key], f"transform.{key}"))
                                        for key in ("a", "b", "delta"))),
        )
    return from_document(doc, "model", MODEL_FORMAT_VERSION, build)


def save_model(model: DensityModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> DensityModel:
    return model_from_dict(read_json(path, "model"))
