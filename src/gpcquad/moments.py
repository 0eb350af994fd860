"""Analytic statistical moments of fitted density models.

Every moment is a sum of per-piece integrals of x^k times the piece density,
each with a closed-form antiderivative: plain powers for the cubic variant;
a polynomial part plus a log/arctan remainder term for the rational variant
(after dividing the numerator by the denominator).

Integrals are evaluated in interval-local coordinates with the monomial
x^k expanded binomially about a point inside the interval. This is
algebraically identical to the global-coordinate antiderivatives but avoids
the severe cancellation the global monomial basis suffers on narrow pieces.
For the rational variant the expansion point is the interval midpoint, where
the denominator loses its linear term and its roots sit at least half an
interval away, keeping the long division well conditioned.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .errors import NumericalError
from .interp import DensityModel, _cubic_monomial, _piece_pdf

__all__ = [
    "MOMENT_CAP",
    "moments",
    "moments_cubic",
    "moments_rational",
    "numeric_moment_oracle",
]

# Highest moment ever needed: basis degree cap 10 requires M_0..M_21.
MOMENT_CAP = 22

# When the quadratic denominator term is at most this fraction of the
# constant term over the interval, integrate through a geometric series in
# it instead of exact long division: the exact quotient coefficients carry a
# 1/D2 factor per degree and cancel catastrophically as D2 -> 0.
_SERIES_THRESHOLD = 0.1


def _check_kmax(kmax: int) -> None:
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    if kmax > MOMENT_CAP:
        raise ValueError(
            f"kmax = {kmax} exceeds the cap {MOMENT_CAP}; higher monomial "
            f"moments are too ill-conditioned for the recurrence construction"
        )


def moments(model: DensityModel, kmax: int) -> np.ndarray:
    """M_0..M_kmax of the fitted density, dispatched on the variant."""
    if model.variant == "cubic":
        return moments_cubic(model, kmax)
    return moments_rational(model, kmax)


# ---------------------------------------------------------------------------
# cubic variant
# ---------------------------------------------------------------------------


def _cubic_piece_raw_moments(c2, c3, c4, h, kmax) -> np.ndarray:
    """J_i = integral of u^i * (c2 + 2 c3 u + 3 c4 u^2) du over [0, h]."""
    i = np.arange(kmax + 1)
    hp = h ** (i + 1)
    return hp * (c2 / (i + 1) + 2.0 * c3 * h / (i + 2) + 3.0 * c4 * h * h / (i + 3))


def moments_cubic(model: DensityModel, kmax: int) -> np.ndarray:
    """Moments via the polynomial antiderivative of x^k times each piece."""
    if model.variant != "cubic":
        raise ValueError(f"expected a cubic model, got {model.variant!r}")
    _check_kmax(kmax)
    terms: list[list[float]] = [[] for _ in range(kmax + 1)]
    x, y = model.x, model.y
    c2, c3, c4 = _cubic_monomial(model)
    for j in range(model.n - 1):
        if y[j + 1] == y[j]:
            continue
        h = x[j + 1] - x[j]
        raw = _cubic_piece_raw_moments(c2[j], c3[j], c4[j], h, kmax)
        _accumulate_binomial(terms, raw, x[j], kmax)
    return np.array([math.fsum(t) for t in terms])


# ---------------------------------------------------------------------------
# rational variant
# ---------------------------------------------------------------------------


def _divide_by_even_quadratic(p: np.ndarray, d0: float, d2: float):
    """Divide p(w) by d2*w^2 + d0; return (quotient, r0, r1)."""
    rem = p.copy()
    deg = len(rem) - 1
    q = np.zeros(max(deg - 1, 1))
    for j in range(deg, 1, -1):
        qc = rem[j] / d2
        q[j - 2] = qc
        rem[j] = 0.0
        rem[j - 2] -= d0 * qc
    return q, rem[0], rem[1] if deg >= 1 else 0.0


def _rational_piece_raw_moments(y0, y1, d0, d1, x0, x1, kmax) -> np.ndarray:
    """J_i = integral of w^i * density dw over w in [-h/2, h/2].

    Uses w^i * rho = d/dw [w^i N/D] - i w^{i-1} N/D, long division of the
    second term, and the symmetric bounds: even antiderivative differences
    drop out, odd ones double.
    """
    h = x1 - x0
    dy = y1 - y0
    s = dy / h
    w = (y1 * d0 + y0 * d1) / s
    v = (d0 + d1) / s
    # centered numerator/denominator: N = A + B w + C w^2, D = D0 + D2 w^2
    A = h * h * (y0 + y1 + w) / 4.0
    B = h * dy
    C = y0 + y1 - w
    D0 = h * h * (2.0 + v) / 4.0
    D2 = 2.0 - v
    half = 0.5 * h
    ratio = abs(D2) * half * half / D0
    use_series = ratio <= _SERIES_THRESHOLD

    # powers cover the polynomial degrees plus the series depth (<= 18 terms
    # of w^2 each at the 0.1 threshold)
    halfpow = half ** np.arange(kmax + 2 * 19 + 4)

    def odd_power_integral(power):  # integral of w^(power-1), symmetric range
        return 2.0 * halfpow[power] / power if power % 2 == 1 else 0.0

    out = np.empty(kmax + 1)
    out[0] = dy
    for i in range(1, kmax + 1):
        boundary = halfpow[i] * (y1 - y0 if i % 2 == 0 else y1 + y0)
        # numerator of the division: i * w^(i-1) * N(w)
        p = np.zeros(i + 2)
        p[i - 1] += i * A
        p[i] += i * B
        p[i + 1] += i * C
        if use_series:
            # 1/(D0 + D2 w^2) = (1/D0) sum_t (-D2 w^2 / D0)^t; term t shrinks
            # by `ratio` per step, so ceil(-18/log10(ratio)) terms reach 1e-18
            if ratio == 0.0:
                n_terms = 1
            else:
                n_terms = max(1, math.ceil(-18.0 / math.log10(ratio)))
            integral = 0.0
            factor = 1.0 / D0
            for t in range(n_terms):
                step = math.fsum(
                    p[j] * odd_power_integral(j + 2 * t + 1) for j in range(len(p))
                )
                integral += factor * step
                factor *= -D2 / D0
            out[i] = boundary - integral
            continue
        q, r0, _r1 = _divide_by_even_quadratic(p, D0, D2)
        poly = math.fsum(q[j] * odd_power_integral(j + 1) for j in range(len(q)))
        # the r1 * log|D| term integrates to zero over symmetric bounds
        if D2 > 0.0:
            root = math.sqrt(4.0 * D0 * D2)
            tail = (4.0 * r0 / root) * math.atan(D2 * h / root)
        else:
            b = math.sqrt(-4.0 * D0 * D2)
            aa = -D2 * h  # |D2 * h|
            small = 4.0 * (-D2) * h * h / (b + aa)  # b - aa, cancellation-free
            tail = (2.0 * r0 / b) * math.log((b + aa) / small)
        out[i] = boundary - poly - tail
    return out


def moments_rational(model: DensityModel, kmax: int) -> np.ndarray:
    """Moments via long division of each piece's rational density."""
    if model.variant != "rational":
        raise ValueError(f"expected a rational model, got {model.variant!r}")
    _check_kmax(kmax)
    terms: list[list[float]] = [[] for _ in range(kmax + 1)]
    x, y, d = model.x, model.y, model.slopes
    for j in range(model.n - 1):
        if y[j + 1] == y[j]:
            continue
        raw = _rational_piece_raw_moments(
            y[j], y[j + 1], d[j], d[j + 1], x[j], x[j + 1], kmax
        )
        _accumulate_binomial(terms, raw, 0.5 * (x[j] + x[j + 1]), kmax)
    return np.array([math.fsum(t) for t in terms])


def _accumulate_binomial(terms, raw, center, kmax) -> None:
    """Scatter x^k = (w + center)^k expansions of the raw local moments."""
    cpow = center ** np.arange(kmax + 1)
    for k in range(kmax + 1):
        row = terms[k]
        for i in range(k + 1):
            row.append(math.comb(k, i) * cpow[k - i] * raw[i])


# ---------------------------------------------------------------------------
# independent numerical oracle
# ---------------------------------------------------------------------------


def numeric_moment_oracle(model: DensityModel, k: int) -> float:
    """Adaptive quadrature of x^k * pdf over each piece, summed.

    Deliberately routed through the density evaluator so it shares nothing
    with the analytic antiderivatives above.
    """
    x, y, d = model.x, model.y, model.slopes
    pieces = []
    worst = (0.0, None)
    for j in range(model.n - 1):
        if y[j + 1] == y[j]:
            continue
        x0 = x[j]
        h = x[j + 1] - x0
        # integrate in piece-local coordinates so narrow steep pieces do not
        # starve the adaptive subdivision; rational pieces with large slope
        # sums concentrate their mass in boundary layers of width ~1/v, so
        # force breakpoints at that scale
        s = (y[j + 1] - y[j]) / h
        v = (d[j] + d[j + 1]) / s
        layer = min(0.25, 10.0 / max(v, 40.0))
        val, err = quad(
            lambda t, j=j: h * (x0 + t * h) ** k * _piece_pdf(model, j, x0 + t * h),
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=400,
            points=sorted({layer, 0.5, 1.0 - layer}),
        )
        pieces.append(val)
        if err > worst[0]:
            worst = (err, j)
    if worst[0] > 1e-9:
        raise NumericalError(
            f"adaptive quadrature failed to converge on piece {worst[1]} "
            f"(error estimate {worst[0]:.2e})"
        )
    return math.fsum(pieces)
