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
        return (np.asarray(xhat, dtype=float) - self.a) / self.b

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


def default_delta(values: np.ndarray) -> float:
    """Margin used when none is given: 1e-3 of the sample range."""
    values = np.asarray(values, dtype=float)
    return 1e-3 * (float(values.max()) - float(values.min()))


def fit_transform(
    samples: SampleSet | np.ndarray, delta: float
) -> tuple[TransformParams, EmpiricalCDF]:
    """Normalize samples into (0, 1) and return them sorted as an ECDF.

    a = min - delta, b = max + delta - a; every normalized value then sits
    in [delta/b, 1 - delta/b], strictly inside (0, 1).
    """
    values = samples.values if isinstance(samples, SampleSet) else np.asarray(samples, float)
    if len(values) < 2:
        raise DegenerateSamplesError(f"need at least 2 samples, got {len(values)}")
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
    normalized = np.sort(params.normalize(values))
    if not (normalized[0] > 0.0 and normalized[-1] < 1.0):
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


def _distinct_steps(ecdf: EmpiricalCDF) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample values and the ECDF level at each, read off the
    already-sorted values (what np.unique would return, without its sort)."""
    sv = ecdf.sorted_values
    first = np.empty(sv.shape, dtype=bool)
    first[:1] = True
    np.not_equal(sv[1:], sv[:-1], out=first[1:])
    ends = np.append(np.flatnonzero(first)[1:], sv.size)
    return sv[first], ends / ecdf.count


def _walk(ux: np.ndarray, uy: np.ndarray, target: float) -> list[int]:
    """Greedy chord walk over candidate indices.

    From each selected point take the farthest candidate whose straight-line
    distance does not exceed `target`; if even the next candidate overshoots,
    take it anyway (the subdivision pass repairs the step constraint).
    The chord is non-decreasing along the candidates because both coordinates
    are, so the farthest admissible candidate is found by bisection.
    """
    chosen = []
    px, py = 0.0, 0.0
    c = -1
    t2 = target * target
    last = len(ux) - 1
    while c < last:
        lo, hi = c + 1, last
        d2 = (ux[lo] - px) ** 2 + (uy[lo] - py) ** 2
        if d2 > t2:
            j = lo
        else:
            # bisect for the last index with chord^2 <= t2
            while lo < hi:
                mid = (lo + hi + 1) // 2
                d2 = (ux[mid] - px) ** 2 + (uy[mid] - py) ** 2
                if d2 <= t2:
                    lo = mid
                else:
                    hi = mid - 1
            j = lo
        chosen.append(j)
        px, py = ux[j], uy[j]
        c = j
    return chosen


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
    ux, uy = _distinct_steps(ecdf)
    if not (ux[0] > 0.0 and ux[-1] < 1.0):
        raise InvariantViolation("normalized samples must lie strictly inside (0,1)")
    target = 1.0 / m

    chosen = _walk(ux, uy, target)
    px = np.concatenate(([0.0], ux[chosen], [1.0]))
    py = np.concatenate(([0.0], uy[chosen], [1.0]))

    # enforce the per-coordinate step bound by splitting oversized segments
    out_x = [0.0]
    out_y = [0.0]
    for k in range(1, len(px)):
        dx = px[k] - px[k - 1]
        dy = py[k] - py[k - 1]
        pieces = max(1, math.ceil(max(dx, dy) * m))
        for i in range(1, pieces):
            out_x.append(px[k - 1] + dx * (i / pieces))
            out_y.append(py[k - 1] + dy * (i / pieces))
        out_x.append(px[k])
        out_y.append(py[k])
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
