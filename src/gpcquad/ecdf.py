"""Sample normalization, empirical CDF, and interpolation-point selection.

Samples are mapped into (0, 1) by x = (xhat - a)/b with a = min - delta and
b = max + delta - a, so the fitted density lives on the unit interval and the
original-coordinate density is recovered by the inverse map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplesError, InvariantViolation, SelectionError
from .surrogate import SampleSet

__all__ = [
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


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted normalized samples; the step estimator y(x) = #(values <= x)/N."""

    sorted_values: np.ndarray
    count: int


@dataclass(frozen=True)
class MonotoneData:
    """Selected CDF interpolation points, endpoints pinned to (0,0) and (1,1)."""

    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)

    def validate(self, m: int | None = None) -> None:
        x, y = self.x, self.y
        if len(x) != len(y) or len(x) < 2:
            raise InvariantViolation("point arrays must have equal length >= 2")
        if x[0] != 0.0 or y[0] != 0.0 or x[-1] != 1.0 or y[-1] != 1.0:
            raise InvariantViolation("endpoints must be (0,0) and (1,1)")
        if not np.all(np.diff(x) > 0):
            raise InvariantViolation("abscissae must be strictly increasing")
        if not np.all(np.diff(y) >= 0):
            raise InvariantViolation("ordinates must be non-decreasing")
        if m is not None:
            step = 1.0 / m + 1e-12
            if np.max(np.diff(x)) > step or np.max(np.diff(y)) > step:
                raise InvariantViolation(f"a step exceeds 1/m = {1.0 / m}")


def _sample_values(samples) -> np.ndarray:
    """The samples as a float array, or `DegenerateSamplesError` naming the
    shape of an array that is not 1-D or the count of one under 2 values."""
    values = samples.values if isinstance(samples, SampleSet) else np.asarray(samples, float)
    if values.ndim != 1:
        raise DegenerateSamplesError(f"samples must be a 1-D array, got shape {values.shape}")
    if len(values) < 2:
        raise DegenerateSamplesError(f"need at least 2 samples, got {len(values)}")
    return values


def default_delta(values: np.ndarray) -> float:
    """Margin used when none is given: 1e-3 of the sample range."""
    values = _sample_values(values)
    return 1e-3 * (float(values.max()) - float(values.min()))


def fit_transform(
    samples: SampleSet | np.ndarray, delta: float
) -> tuple[TransformParams, EmpiricalCDF]:
    """Normalize samples into (0, 1) and return them sorted as an ECDF.

    a = min - delta, b = max + delta - a; every normalized value then sits
    in [delta/b, 1 - delta/b], strictly inside (0, 1).
    """
    values = _sample_values(samples)
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = hi if math.isfinite(lo) else lo
        raise DegenerateSamplesError(f"samples must be finite, found the value {bad}")
    if hi == lo:
        raise DegenerateSamplesError(f"degenerate sample set: all values equal {lo}")
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
    return params, EmpiricalCDF(sorted_values=normalized, count=len(values))


def ecdf_eval(ecdf: EmpiricalCDF, x) -> float | np.ndarray:
    """Right-continuous step estimate y(x) = #(values <= x)/N."""
    idx = np.searchsorted(ecdf.sorted_values, x, side="right")
    out = idx / ecdf.count
    return float(out) if np.isscalar(x) else out


def _walk(ecdf: EmpiricalCDF, m: int) -> tuple[list, list]:
    """Greedy chord walk over the distinct-value ECDF nodes.

    From each selected point take the farthest node whose straight-line
    distance does not exceed 1/m; if even the next node overshoots, take it
    anyway (the subdivision pass repairs the step constraint). The chord is
    non-decreasing along the sorted values because both coordinates are, so
    the farthest admissible node is found by bisection over sorted indices;
    every index adds at least 1/N to y, so none lies more than N/m indices
    past the current point. Returns the selected nodes' x and y.
    """
    sv, count = ecdf.sorted_values, ecdf.count
    last = sv.size - 1

    def node(i):
        """(x, count of values <= x) at sorted index i"""
        x = sv.item(i)
        if i == last or sv.item(i + 1) != x:
            return x, i + 1
        return x, int(np.searchsorted(sv, x, side="right"))  # inside a tie run

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
    end = 0  # sorted values at or below the current point
    while end <= last:
        lo, hi = end, min(end + reach, last)
        x, k = node(lo)
        d2 = (x - px) ** 2 + (k / count - py) ** 2
        if d2 <= t2:
            # bisect for the last index with chord^2 <= t2
            while lo < hi:
                mid = (lo + hi + 1) // 2
                xmid, kmid = node(mid)
                d2 = (xmid - px) ** 2 + (kmid / count - py) ** 2
                if d2 <= t2:
                    lo, x, k = mid, xmid, kmid
                else:
                    hi = mid - 1
        px, py = x, k / count
        xs.append(px)
        ys.append(py)
        end = k
    return xs, ys


def select_points(ecdf: EmpiricalCDF, m: int) -> MonotoneData:
    """Pick interpolation points off the ECDF so consecutive points are about
    1/m apart in straight-line distance and no step exceeds 1/m in either
    coordinate.

    Walks the distinct-value ECDF nodes by chord distance, pins (0,0) and
    (1,1), then splits any remaining oversized step along its straight
    segment (an atom in the data becomes a steep ramp: a continuous CDF
    cannot carry a jump).
    """
    if m < 2:
        raise SelectionError(f"m must be at least 2, got {m}")
    sv = ecdf.sorted_values
    if not (sv[0] > 0.0 and sv[-1] < 1.0):
        raise InvariantViolation("normalized samples must lie strictly inside (0,1)")

    xs, ys = _walk(ecdf, m)
    px = [0.0, *xs, 1.0]
    py = [0.0, *ys, 1.0]

    # enforce the per-coordinate step bound by splitting oversized segments
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
    x = np.asarray(out_x)
    y = np.asarray(out_y)
    y = np.minimum.accumulate(y[::-1])[::-1]  # shield monotonicity from roundoff
    if np.any(np.diff(x) <= 0):
        raise SelectionError(
            f"sample resolution too coarse for m = {m}: "
            f"subdivision collapsed adjacent abscissae"
        )
    data = MonotoneData(x=x, y=y)
    data.validate(m)
    return data


def save_monotone_csv(data: MonotoneData, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(data.x, data.y):
            fh.write(f"{float(xi)!r},{float(yi)!r}\n")


def load_monotone_csv(path) -> MonotoneData:
    xs, ys = [], []
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    start = 1 if rows and rows[0][1].lower().startswith("x") else 0
    for i, ln in rows[start:]:
        try:
            x, y = (float(field) for field in ln.split(","))
        except ValueError as exc:  # wrong field count or a non-numeric field
            raise InvariantViolation(
                f"{path}, row {i}: expected two numbers x,y, got {ln!r}"
            ) from exc
        xs.append(x)
        ys.append(y)
    data = MonotoneData(x=np.asarray(xs), y=np.asarray(ys))
    data.validate()
    return data
