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

The integrals run on arrays over all rising pieces and all orders at once;
the one Python loop left steps through the series terms, and the long
division steps through its quotient coefficients for every order together.
Sums whose terms can cancel are rounded correctly, so their bits do not
depend on the term order:

- The binomial scatter into each moment goes through `_segment_fsums`, which
  returns the bits `math.fsum` would for each moment's terms. It splits
  every term t exactly into a high and a low part, high = (t + sigma) -
  sigma and low = t - high, with sigma a power of two at least 2 n max|t|
  over the moment's n terms (Rump, Ogita and Oishi, "Accurate
  floating-point summation", SIAM J. Sci. Comput. 2008). The high parts lie
  on one grid of spacing u * sigma and their partial sums stay below sigma,
  so they add up exactly in any order, to S. The low parts add up in plain
  float64 to tau, within delta = 2 n u sum|low| of their exact sum.
  Rounding is monotone, so when fsum((S, tau, -delta)) equals fsum((S, tau,
  delta)) that value is the correctly rounded exact sum. Otherwise (a sum
  within delta of a rounding tie, a zero sum, a non-finite term) the moment
  falls back to `math.fsum` over its terms.
- The polynomial part of the division branch, at most kmax terms per piece
  and order, goes through `math.fsum` directly.

A series step has at most two nonzero terms, and one IEEE addition of two
terms is already correctly rounded, so it needs no fsum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, integer
from .interp import DensityModel, _cubic_monomial, _pdf_t, _to_t
from .orthopoly import DEGREE_CAP

__all__ = [
    "MOMENT_CAP",
    "moments",
    "moments_cubic",
    "moments_rational",
    "numeric_moment_oracle",
]

# Highest moment ever needed: a basis of degree DEGREE_CAP reads
# M_0..M_{2 DEGREE_CAP + 1}. Higher monomial moments are too ill-conditioned
# for the recurrence.
MOMENT_CAP = 2 * DEGREE_CAP + 1

# When the quadratic denominator term is at most this fraction of the
# constant term over the interval, integrate through a geometric series in
# it instead of exact long division: the exact quotient coefficients carry a
# 1/D2 factor per degree and cancel catastrophically as D2 -> 0.
_SERIES_THRESHOLD = 0.1


def moments(model: DensityModel, kmax: int) -> np.ndarray:
    """M_0..M_kmax of the fitted density, dispatched on the variant."""
    if model.variant == "cubic":
        return moments_cubic(model, kmax)
    return moments_rational(model, kmax)


def _segment_fsums(terms: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """math.fsum of terms[:, starts[j]:starts[j + 1]] for each j, bit for bit
    (the last run ends at the last column); see the module docstring."""
    rows, cols = terms.shape
    widths = np.diff(starts, append=cols)
    n = rows * widths
    work = np.abs(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 2.0 * n * np.maximum.reduceat(work.max(axis=0, initial=0.0), starts)
        sigma = np.ldexp(1.0, np.frexp(bound)[1])
        finite = np.isfinite(bound) & np.isfinite(sigma)
        col_sigma = np.repeat(np.where(finite, sigma, 1.0), widths)
        high = np.add(terms, col_sigma, out=work)
        high -= col_sigma
        big = np.add.reduceat(high.sum(axis=0), starts)
        low = np.subtract(terms, high, out=work)
        tau = np.add.reduceat(low.sum(axis=0), starts)
        # 2 n u sum|low|, u = 2^-53 the unit roundoff
        delta = (n * 2.0**-52) * np.add.reduceat(np.abs(low, out=work).sum(axis=0), starts)
    out = np.empty(len(starts))
    for j, (s, t, d, ok) in enumerate(zip(big.tolist(), tau.tolist(), delta.tolist(), finite)):
        below, above = math.fsum((s, t, -d)), math.fsum((s, t, d))
        if ok and below == above and below != 0.0:
            out[j] = below
        else:
            out[j] = math.fsum(terms[:, starts[j] : starts[j] + widths[j]].ravel().tolist())
    return out


def _binomial_sum(raw: np.ndarray, center: np.ndarray, kmax: int) -> np.ndarray:
    """M_k = sum over pieces and i of C(k, i) center^(k-i) raw_i, where
    raw[p, i] is piece p's local moment in w = x - center[p]."""
    k, i = np.tril_indices(kmax + 1)
    comb = np.array([float(math.comb(a, b)) for a, b in zip(k.tolist(), i.tolist())])
    cpow = center[:, None] ** np.arange(kmax + 1)
    # (comb * cpow) * raw: the two roundings of the per-order product
    terms = cpow[:, k - i]
    terms *= comb
    terms *= raw[:, i]
    return _segment_fsums(terms, np.flatnonzero(i == 0))


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
    kmax = integer(kmax, "kmax", 0, MOMENT_CAP)
    p = model.pieces
    rising = p.dy != 0
    c2, c3, c4 = (c[rising][:, None] for c in _cubic_monomial(p))
    h = p.h[rising][:, None]
    i = np.arange(kmax + 1)
    raw = h ** (i + 1) * (c2 / (i + 1) + 2.0 * c3 * h / (i + 2) + 3.0 * c4 * h * h / (i + 3))
    return _binomial_sum(raw, p.x0[rising], kmax)


# ---------------------------------------------------------------------------
# rational variant
# ---------------------------------------------------------------------------


def _long_division(iA, iB, iC, D0, D2, opi):
    """Divide k w^(k-1) (A + B w + C w^2) by D0 + D2 w^2 for every order
    k = 1..kmax at once, order k in column k - 1 of iA = k A, iB, iC.

    Returns the integral of each quotient over the symmetric range (opi as
    in `moments_rational`) and each constant remainder. Counted from the
    top term, the running remainder is R_0 = kC, R_1 = kB, R_2 = kA - D0 q_0
    and R_r = 0 - D0 q_(r-2), and the quotient coefficient of w^(k-1-r) is
    q_r = R_r / D2. Order k stops after q_(k-1); its constant remainder is
    R_(k+1).
    """
    nd, kmax = iA.shape
    rem = np.empty((kmax + 2, nd, kmax))
    rem[0], rem[1] = iC, iB
    quot = np.zeros((nd, kmax, kmax))  # quot[:, k - 1, r] = q_r of order k
    for r in range(kmax + 2):
        if r >= 2:
            c = r - 2
            rem[r, :, c:] = (iA if r == 2 else 0.0) - D0[:, None] * quot[:, c:, c]
        if r < kmax:
            quot[:, r:, r] = rem[r, :, r:] / D2[:, None]
    k, r = np.tril_indices(kmax)  # term r of order k + 1: q_r times opi[:, k + 1 - r]
    first = np.flatnonzero(r == 0).tolist()
    runs = list(zip(first, first[1:] + [len(k)]))
    terms = (quot[:, k, r] * opi[:, k + 1 - r]).tolist()
    poly = np.array([math.fsum(row[a:b]) for row in terms for a, b in runs]).reshape(nd, kmax)
    return poly, rem[np.arange(2, kmax + 2), :, np.arange(kmax)].T


@np.errstate(all="ignore")  # a piece beyond float64's range is refused by name below
def moments_rational(model: DensityModel, kmax: int) -> np.ndarray:
    """Moments via long division of each piece's rational density.

    Piece p contributes J_i = integral of w^i * density over w in
    [-h/2, h/2] around its midpoint. Uses w^i rho = d/dw [w^i N/D] -
    i w^(i-1) N/D, divides the second term by D (exactly, or through a
    geometric series in D2 w^2 / D0 when that is small), and the symmetric
    bounds: even antiderivative differences drop out, odd ones double.
    Raises NumericalError naming the first piece whose local moments are
    not finite, such as one so narrow that its width squared underflows.
    """
    if model.variant != "rational":
        raise ValueError(f"expected a rational model, got {model.variant!r}")
    kmax = integer(kmax, "kmax", 0, MOMENT_CAP)
    p = model.pieces
    rising = p.dy != 0
    x0, x1, y0, y1 = p.x0[rising], p.x1[rising], p.y0[rising], p.y1[rising]
    h, dy, w, v = p.h[rising], p.dy[rising], p.w[rising], p.v[rising]
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
    poly, const = _long_division(iA[div], iB[div], iC[div], D0d, D2d, opi[div])
    raw[div, 1:] = raw[div, 1:] - poly - (scale[:, None] * const / root[:, None]) * fn[:, None]
    bad = ~np.isfinite(raw).all(axis=1)
    if bad.any():
        j = int(np.flatnonzero(rising)[np.argmax(bad)])
        raise NumericalError(
            f"the moments of piece {j} on [{float(p.x0[j])}, {float(p.x1[j])}] are not finite "
            f"in float64: the piece is too narrow or too steep for them"
        )
    return _binomial_sum(raw, 0.5 * (x0 + x1), kmax)


# ---------------------------------------------------------------------------
# independent numerical oracle
# ---------------------------------------------------------------------------


def numeric_moment_oracle(model: DensityModel, k: int) -> float:
    """Adaptive quadrature of x^k * pdf over each piece, summed.

    Deliberately routed through the density evaluator so it shares nothing
    with the analytic antiderivatives above. scipy is imported here, on the
    first call, so that importing the package does not load it.
    """
    from scipy.integrate import quad

    k = integer(k, "k", 0)
    p = model.pieces
    integrals = []
    worst = (0.0, None)
    for j in np.flatnonzero(p.y1 != p.y0).tolist():
        x0, h = p.x0[j], p.h[j]
        # integrate in piece-local coordinates so narrow steep pieces do not
        # starve the adaptive subdivision; rational pieces with large slope
        # sums concentrate their mass in boundary layers of width ~1/v, with
        # tails that fall like 1/t^2 beyond them, so force breakpoints at
        # that scale and at 2^-i and 1 - 2^-i for i = 2 .. ceil(log2 v) - 1.
        # The density is taken at the rounded x = x_j + t h, through its own
        # t, as a caller's would be.
        v = float(p.v[j])
        layer = min(0.25, 10.0 / max(v, 40.0))
        steps = [2.0**-i for i in range(2, math.ceil(math.log2(v)) if 1.0 < v < math.inf else 0)]
        points = sorted({layer, 0.5, 1.0 - layer, *steps, *(1.0 - s for s in steps)})
        val, err = quad(
            lambda t, j=j: h * (x0 + t * h) ** k * _pdf_t(p, j, _to_t(p, j, x0 + t * h)),
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=400 + len(points),
            points=points,
        )
        integrals.append(val)
        if err > worst[0]:
            worst = (err, j)
    if worst[0] > 1e-9:
        raise NumericalError(
            f"adaptive quadrature failed to converge on piece {worst[1]} "
            f"(error estimate {worst[0]:.2e})"
        )
    return math.fsum(integrals)
