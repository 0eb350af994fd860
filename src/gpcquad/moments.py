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

The integrals run on arrays over all rising pieces at once; Python loops
remain only over the moment order and the series term. Sums whose terms can
cancel (the binomial scatter into each moment, the polynomial part of the
division branch) go through `math.fsum`, which rounds correctly whatever the
term order. A series step has at most two nonzero terms, and one IEEE
addition of two terms is already correctly rounded, so it needs no fsum.
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
    if model.variant == "rational":
        return moments_rational(model, kmax)
    raise ValueError(f"unknown variant {model.variant!r}; expected 'cubic' or 'rational'")


def _binomial_sum(raw: np.ndarray, center: np.ndarray, kmax: int) -> np.ndarray:
    """M_k = sum over pieces and i of C(k, i) center^(k-i) raw_i, where
    raw[p, i] is piece p's local moment in w = x - center[p]."""
    cpow = center[:, None] ** np.arange(kmax + 1)
    out = np.empty(kmax + 1)
    for k in range(kmax + 1):
        comb = np.array([float(math.comb(k, i)) for i in range(k + 1)])
        out[k] = math.fsum((comb * cpow[:, k::-1] * raw[:, : k + 1]).ravel().tolist())
    return out


# ---------------------------------------------------------------------------
# cubic variant
# ---------------------------------------------------------------------------


def moments_cubic(model: DensityModel, kmax: int) -> np.ndarray:
    """Moments via the polynomial antiderivative of x^k times each piece.

    Piece p contributes J_i = integral of u^i (c2 + 2 c3 u + 3 c4 u^2) du
    over [0, h] in u = x - x_p.
    """
    if model.variant != "cubic":
        raise ValueError(f"expected a cubic model, got {model.variant!r}")
    _check_kmax(kmax)
    rising = np.diff(model.y) != 0
    c2, c3, c4 = (c[rising][:, None] for c in _cubic_monomial(model))
    h = np.diff(model.x)[rising][:, None]
    i = np.arange(kmax + 1)
    raw = h ** (i + 1) * (c2 / (i + 1) + 2.0 * c3 * h / (i + 2) + 3.0 * c4 * h * h / (i + 3))
    return _binomial_sum(raw, model.x[:-1][rising], kmax)


# ---------------------------------------------------------------------------
# rational variant
# ---------------------------------------------------------------------------


def moments_rational(model: DensityModel, kmax: int) -> np.ndarray:
    """Moments via long division of each piece's rational density.

    Piece p contributes J_i = integral of w^i * density over w in
    [-h/2, h/2] around its midpoint. Uses w^i rho = d/dw [w^i N/D] -
    i w^(i-1) N/D, divides the second term by D (exactly, or through a
    geometric series in D2 w^2 / D0 when that is small), and the symmetric
    bounds: even antiderivative differences drop out, odd ones double.
    """
    if model.variant != "rational":
        raise ValueError(f"expected a rational model, got {model.variant!r}")
    _check_kmax(kmax)
    x, y, d = model.x, model.y, model.slopes
    rising = np.diff(y) != 0
    x0, x1, y0, y1 = x[:-1][rising], x[1:][rising], y[:-1][rising], y[1:][rising]
    d0, d1 = d[:-1][rising], d[1:][rising]
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
    ratio = np.abs(D2) * half * half / D0
    series = ratio <= _SERIES_THRESHOLD

    # 1/(D0 + D2 w^2) = (1/D0) sum_t (-D2 w^2 / D0)^t; term t shrinks by
    # `ratio` per step, so ceil(-18/log10(ratio)) terms reach 1e-18
    n_terms = np.array(
        [max(1, math.ceil(-18.0 / math.log10(r))) if r else 1 for r in ratio[series].tolist()],
        dtype=int,
    )
    depth = n_terms.max(initial=0)
    powers = np.arange(kmax + 2 * depth + 1)
    halfpow = half[:, None] ** powers
    # opi[:, P] = integral of w^(P-1) over the symmetric range
    opi = np.zeros_like(halfpow)
    opi[:, 1::2] = 2.0 * halfpow[:, 1::2] / powers[1::2]

    # raw[:, i] = boundary term minus the integral of i w^(i-1) N(w) / D(w)
    i = np.arange(1, kmax + 1)
    raw = np.empty((len(h), kmax + 1))
    raw[:, 0] = dy
    raw[:, 1:] = halfpow[:, 1 : kmax + 1] * np.where(i % 2 == 0, dy[:, None], (y1 + y0)[:, None])
    iA, iB, iC = (i * c[:, None] for c in (A, B, C))

    # series pieces, deepest first, so those still summing at term t are a prefix
    deepest = np.argsort(-n_terms, kind="stable")
    order, live = np.flatnonzero(series)[deepest], n_terms[deepest]
    sA, sB, sC, so = iA[order], iB[order], iC[order], opi[order]
    integral = np.zeros((len(order), kmax))
    factor = 1.0 / D0[order]
    q_ratio = -D2[order] / D0[order]
    for t in range(depth):
        c = np.count_nonzero(live > t)
        lo = 1 + 2 * t  # so[:, lo + i - 1] integrates w^(i - 1 + 2t), i = 1..kmax
        # at most two of the three terms have an odd-power integral, so this
        # sum is correctly rounded
        step = (
            sA[:c] * so[:c, lo : lo + kmax]
            + sB[:c] * so[:c, lo + 1 : lo + 1 + kmax]
            + sC[:c] * so[:c, lo + 2 : lo + 2 + kmax]
        )
        integral[:c] += factor[:c, None] * step
        factor[:c] *= q_ratio[:c]
    raw[order, 1:] -= integral

    # division pieces: exact quotient by D0 + D2 w^2 plus an atan (D2 > 0) or
    # log (D2 < 0) remainder; the r1 * log|D| term integrates to zero
    div = np.flatnonzero(~series)
    D0d, D2d, hd = D0[div], D2[div], h[div]
    pos, neg = D2d > 0.0, D2d <= 0.0
    root, scale, fn = np.empty(len(div)), np.where(pos, 4.0, 2.0), np.empty(len(div))
    root[pos] = np.sqrt(4.0 * D0d[pos] * D2d[pos])
    fn[pos] = [math.atan(z) for z in (D2d[pos] * hd[pos] / root[pos]).tolist()]
    root[neg] = np.sqrt(-4.0 * D0d[neg] * D2d[neg])
    aa = -D2d[neg] * hd[neg]  # |D2 * h|
    small = 4.0 * (-D2d[neg]) * hd[neg] * hd[neg] / (root[neg] + aa)  # b - aa, cancellation-free
    fn[neg] = [math.log(z) for z in ((root[neg] + aa) / small).tolist()]
    for k in range(1, kmax + 1):
        rem = np.zeros((len(div), k + 2))
        rem[:, k - 1 :] = np.stack((iA[div, k - 1], iB[div, k - 1], iC[div, k - 1]), axis=1)
        quot = np.zeros((len(div), k))
        for j in range(k + 1, 1, -1):
            quot[:, j - 2] = rem[:, j] / D2d
            rem[:, j - 2] -= D0d * quot[:, j - 2]
        poly = [math.fsum(row) for row in (quot * opi[div, 1 : k + 1]).tolist()]
        raw[div, k] = raw[div, k] - poly - (scale * rem[:, 0] / root) * fn
    return _binomial_sum(raw, 0.5 * (x0 + x1), kmax)


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
