"""Sample normalization, empirical CDF, and interpolation-point selection.

Samples are mapped into (0, 1) by x = (xhat - a)/b with a = min - delta and
b = max + delta - a, so the fitted density lives on the unit interval and the
original-coordinate density is recovered by the inverse map.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplesError, InvariantViolation, SelectionError, integer, read_only
from .files import read_rows, write_rows

__all__ = [
    "M_MAX",
    "TransformParams",
    "EmpiricalCDF",
    "MonotoneData",
    "default_delta",
    "fit_transform",
    "ecdf_eval",
    "select_points",
    "save_monotone_csv",
    "load_monotone_csv",
]

# Largest m `select_points` takes, 50 times the largest m tests and benchmark use:
# it builds about 1.5 m points whatever the sample size.
M_MAX = 10_000

# Values per order check in `EmpiricalCDF`: a 64 KB mask, not one as long as the sample.
_CHECK = 1 << 16


@dataclass(frozen=True)
class TransformParams:
    """Shift/scale pair mapping original samples into (0, 1), plus the margin."""

    a: float
    b: float
    delta: float

    def normalize(self, xhat):
        x = np.asarray(xhat, dtype=float) - self.a
        x /= self.b  # in place: one array as long as the input, not two
        return x

    def denormalize(self, x):
        return self.a + self.b * np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no truth value or hash
class EmpiricalCDF:
    """Sorted normalized samples; the step estimator y(x) = #(values <= x)/N.
    Building one raises `InvariantViolation` unless the values are a
    non-empty 1-D float64 array that lies strictly inside (0, 1) and never
    decreases, which also refuses NaN. The values are held as given, not
    as a `read_only` copy, which would add 8 MB to the peak of a fit of
    N = 1e6 samples."""

    sorted_values: np.ndarray

    def __post_init__(self):
        sv = np.asarray(self.sorted_values)
        object.__setattr__(self, "sorted_values", sv)
        if sv.dtype != float or sv.ndim != 1 or sv.size == 0:
            shape = f"{sv.dtype} of shape {sv.shape}"
            raise InvariantViolation(f"ECDF values must be a non-empty 1-D float64 array, got {shape}")
        if not (sv[0] > 0.0 and sv[-1] < 1.0):
            raise InvariantViolation("normalized samples must lie strictly inside (0,1)")
        chunks = (sv[i : i + _CHECK + 1] for i in range(0, sv.size, _CHECK))  # overlapping by one
        if not all((c[:-1] <= c[1:]).all() for c in chunks):
            raise InvariantViolation("ECDF values must never decrease, and hold no NaN")

    @property
    def count(self) -> int:
        return self.sorted_values.size


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no truth value or hash
class MonotoneData:
    """Selected CDF interpolation points, endpoints pinned to (0,0) and (1,1).
    Each array is a read-only float copy. Building one (`dataclasses.replace`,
    `copy` and `pickle` included) raises `InvariantViolation` unless x and y
    are 1-D of one length >= 2, x strictly increases and y never falls."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", read_only(self.x))
        object.__setattr__(self, "y", read_only(self.y))
        x, y = self.x, self.y
        if x.ndim != 1 or y.ndim != 1:
            raise InvariantViolation(f"point arrays must be 1-D, got shapes {x.shape} and {y.shape}")
        if len(x) != len(y) or len(x) < 2:
            raise InvariantViolation("point arrays must have equal length >= 2")
        if x[0] != 0.0 or y[0] != 0.0 or x[-1] != 1.0 or y[-1] != 1.0:
            raise InvariantViolation("endpoints must be (0,0) and (1,1)")
        if not np.all(np.diff(x) > 0):
            raise InvariantViolation("abscissae must be strictly increasing")
        if not np.all(np.diff(y) >= 0):
            raise InvariantViolation("ordinates must be non-decreasing")

    def __reduce__(self):
        return type(self), (self.x, self.y)

    @property
    def n(self) -> int:
        return len(self.x)


def _sample_values(samples) -> np.ndarray:
    """The samples (a `SampleSet`'s values, or an array) as a float array, or
    `DegenerateSamplesError` naming the shape of an array that is not 1-D or
    the count of one under 2 values."""
    values = np.asarray(getattr(samples, "values", samples), dtype=float)
    if values.ndim != 1:
        raise DegenerateSamplesError(f"samples must be a 1-D array, got shape {values.shape}")
    if len(values) < 2:
        raise DegenerateSamplesError(f"need at least 2 samples, got {len(values)}")
    return values


def _finite_range(values: np.ndarray) -> tuple[float, float]:
    """The least and greatest of `values`, or `DegenerateSamplesError`
    naming a value that is not finite or the one value they all equal."""
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = hi if math.isfinite(lo) else lo
        raise DegenerateSamplesError(f"samples must be finite, found the value {bad}")
    if hi == lo:
        raise DegenerateSamplesError(f"degenerate sample set: all values equal {lo}")
    return lo, hi


def default_delta(values: np.ndarray) -> float:
    """Margin used when none is given: 1e-3 of the sample range.

    Raises `DegenerateSamplesError` where `fit_transform` would: for samples
    that are not finite or all equal, and for a range too wide for float64;
    and for a range so narrow (under about 5e-321) that the margin underflows.
    """
    lo, hi = _finite_range(_sample_values(values))
    if not math.isfinite(hi - lo):
        raise DegenerateSamplesError(f"the width of the sample range [{lo}, {hi}] overflows float64")
    delta = 1e-3 * (hi - lo)
    if delta == 0.0:
        raise DegenerateSamplesError(
            f"the sample range [{lo}, {hi}] is too narrow for a margin of 1e-3 of its width, "
            f"which underflows to 0.0"
        )
    return delta


def fit_transform(samples, delta: float) -> tuple[TransformParams, EmpiricalCDF]:
    """Normalize samples (a `SampleSet` or an array) into (0, 1) and return
    them sorted as an ECDF.

    a = min - delta, b = max + delta - a; every normalized value then sits
    in [delta/b, 1 - delta/b], strictly inside (0, 1).
    """
    values = _sample_values(samples)
    lo, hi = _finite_range(values)
    if not delta > 0:
        raise DegenerateSamplesError(f"delta must be positive, got {delta}")
    a = lo - delta
    b = hi + delta - a
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DegenerateSamplesError(
            f"sample range [{lo}, {hi}] widened by delta = {delta} overflows float64"
        )
    params = TransformParams(a=a, b=b, delta=delta)
    normalized = params.normalize(values)
    normalized.sort()
    if not (normalized[0] > 0.0 and normalized[-1] < 1.0):
        magnitude = max(abs(lo), abs(hi))
        spacing = math.ulp(magnitude)
        if delta < spacing:
            raise DegenerateSamplesError(
                f"delta = {delta} is below the spacing {spacing} of doubles at "
                f"magnitude {magnitude}, so the range [{lo}, {hi}] cannot be "
                f"widened by it"
            )
        raise DegenerateSamplesError(
            f"delta = {delta} is too small relative to the sample range to "
            f"keep normalized samples strictly inside (0, 1)"
        )
    return params, EmpiricalCDF(sorted_values=normalized)


def _reject_nan(x) -> np.ndarray:
    """x as a float array; a NaN raises ValueError naming its (flat) index,
    where a search would silently place it past every value."""
    x = np.asarray(x, dtype=float)
    nan = np.isnan(x)
    if nan.any():
        raise ValueError(f"cannot evaluate at NaN: x is nan at index {int(np.argmax(nan))}")
    return x


def ecdf_eval(ecdf: EmpiricalCDF, x) -> float | np.ndarray:
    """Right-continuous step estimate y(x) = #(values <= x)/N; a NaN raises ValueError."""
    idx = np.searchsorted(ecdf.sorted_values, _reject_nan(x), side="right")
    out = idx / ecdf.count
    return float(out) if np.ndim(x) == 0 else out


def _walk(ecdf: EmpiricalCDF, m: int) -> tuple[list, list]:
    """Greedy chord walk over the distinct-value ECDF nodes.

    From each selected point take the farthest node whose straight-line
    distance does not exceed 1/m; if even the next node overshoots, take it
    anyway (the subdivision pass repairs the step constraint). Every index
    adds at least 1/N to y, so none lies more than N/m indices past the
    current point, and inside that window the computed chord^2 never
    decreases along the sorted values (IEEE -, ** 2 of a non-negative value
    and + are each monotone), so one `bisect` finds the farthest admissible
    node. Returns the selected nodes' x and y.
    """
    sv, count = ecdf.sorted_values, ecdf.count
    last = sv.size - 1

    def node(i):
        """(x, count of values <= x) at sorted index i"""
        x = sv.item(i)
        if i == last or sv.item(i + 1) != x:
            return x, i + 1
        return x, int(np.searchsorted(sv, x, side="right"))  # inside a tie run

    def chord2(i):
        # chord^2 from the current point to node(i), written out: a call to
        # node here would cost about 15 % of `select_points`
        x = sv.item(i)
        k = i + 1 if i == last or sv.item(i + 1) != x else int(np.searchsorted(sv, x, side="right"))
        return (x - px) ** 2 + (k / count - py) ** 2

    xs, ys = [], []
    # Python floats throughout: their + - * / are the IEEE double operations
    # of np.float64, and both kinds of ** 2 call C pow (which x * x need not
    # match), so every chord has the bits of the np.float64 reference walk;
    # test_select_points_matches_reference_walk_* and
    # test_python_square_matches_numpy_scalar_square guard this.
    px = py = 0.0
    target = 1.0 / m
    t2 = target * target
    reach = -(-sv.size // m)
    indices = range(sv.size)
    end = 0  # sorted values at or below the current point
    while end <= last:
        # past the farthest admissible node; if the node at `end` overshoots, take it
        past = bisect.bisect_right(indices, t2, end, min(end + reach, last) + 1, key=chord2)
        px, end = node(max(past - 1, end))
        py = end / count
        xs.append(px)
        ys.append(py)
    return xs, ys


def select_points(ecdf: EmpiricalCDF, m: int) -> MonotoneData:
    """Pick interpolation points off the ECDF so consecutive points are about
    1/m apart in straight-line distance and no step exceeds 1/m in either
    coordinate.

    Walks the distinct-value ECDF nodes by chord distance, pins (0,0) and
    (1,1), then splits any remaining oversized step along its straight
    segment (an atom in the data becomes a steep ramp: a continuous CDF
    cannot carry a jump).

    `m` is an integer in [2, M_MAX], numpy integers included; a bool, any
    other value or one out of range raises `SelectionError`.
    """
    m = integer(m, "m", 2, M_MAX, SelectionError)
    xs, ys = _walk(ecdf, m)
    px = np.array([0.0, *xs, 1.0])
    py = np.array([0.0, *ys, 1.0])

    # enforce the per-coordinate step bound by splitting each oversized step
    # along its segment into `parts` equal parts: part i of a step from
    # (x0, y0) lies at x0 + dx * (i / parts), and part 0 at x0 itself
    dx, dy = np.diff(px), np.diff(py)
    parts = np.maximum(1, np.ceil(np.maximum(dx, dy) * m)).astype(int)
    step = np.repeat(np.arange(parts.size), parts)
    first = np.cumsum(parts) - parts  # index of each step's part 0
    frac = (np.arange(step.size) - first[step]) / parts[step]
    x = np.append(px[step] + dx[step] * frac, 1.0)
    y = np.append(py[step] + dy[step] * frac, 1.0)
    y = np.minimum.accumulate(y[::-1])[::-1]  # shield monotonicity from roundoff
    if np.any(np.diff(x) <= 0):
        raise SelectionError(
            f"sample resolution too coarse for m = {m}: "
            f"subdivision collapsed adjacent abscissae"
        )
    bound = 1.0 / m + 1e-12
    if np.max(np.diff(x)) > bound or np.max(np.diff(y)) > bound:
        raise InvariantViolation(f"a step exceeds 1/m = {1.0 / m}")
    return MonotoneData(x=x, y=y)


def save_monotone_csv(data: MonotoneData, path) -> None:
    write_rows(path, "x,y", "%r", data.x, data.y)


def load_monotone_csv(path) -> MonotoneData:
    """The x,y rows of a points file, read by `files.read_rows` (InvariantViolation)."""
    rows = read_rows(path, 2, "points", InvariantViolation)
    return MonotoneData(x=rows[:, 0], y=rows[:, 1])
