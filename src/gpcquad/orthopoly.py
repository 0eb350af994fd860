"""Monic orthogonal polynomials and the orthonormal basis from moments.

The three-term recurrence coefficients are obtained by contracting the
squared coefficient vectors of each monic polynomial with the moment
sequence. The contraction is carried out in the widest hardware float
(80-bit extended on x86) because the map from moments to recurrence
coefficients is badly conditioned at high degree; the degree cap and the
positivity tripwire on the normalization ratios bound the damage.

The basis is evaluated through the orthonormal form of the same recurrence;
its monomial coefficients are kept as the published output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import KappaNotPositiveError

__all__ = [
    "DEGREE_CAP",
    "check_degree",
    "RecurrenceCoeffs",
    "OrthonormalBasis",
    "compute_recurrence",
    "basis_values",
    "eval_basis",
    "basis_to_dict",
    "basis_from_dict",
    "save_basis",
    "load_basis",
]

DEGREE_CAP = 10

BASIS_FORMAT_VERSION = 1


def check_degree(n_hat: int) -> None:
    """Raise ValueError unless n_hat is an integer, not a bool, in
    [0, DEGREE_CAP]."""
    if isinstance(n_hat, bool) or not isinstance(n_hat, (int, np.integer)):
        raise ValueError(f"degree must be an integer, got {n_hat!r}")
    if not 0 <= n_hat <= DEGREE_CAP:
        raise ValueError(f"degree must be within [0, {DEGREE_CAP}], got {n_hat}")


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """gamma_0..gamma_n and kappa_0..kappa_n (kappa_0 = 1) of the monic
    recurrence pi_{i+1}(x) = (x - gamma_i) pi_i(x) - kappa_i pi_{i-1}(x)."""

    gamma: np.ndarray
    kappa: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.gamma) - 1


@dataclass(frozen=True)
class OrthonormalBasis:
    """The orthonormal polynomials phi_i = pi_i / sqrt(kappa_0 ... kappa_i)
    of a recurrence, i = 0..degree, with their coefficient vectors
    (ascending powers). The coefficients are the published output; values
    are taken through the recurrence (`basis_values`), since Horner on the
    monomial coefficients loses accuracy as the degree grows."""

    rec: RecurrenceCoeffs
    phi_coeffs: tuple

    @property
    def degree(self) -> int:
        return self.rec.degree


def _monic_from_recurrence(gamma: np.ndarray, kappa: np.ndarray, n_hat: int):
    polys = [np.array([1.0])]
    prev = np.zeros(1)
    for i in range(n_hat):
        cur = polys[i]
        nxt = np.zeros(i + 2)
        nxt[1:] += cur
        nxt[: i + 1] -= gamma[i] * cur
        nxt[: len(prev)] -= kappa[i] * prev
        prev = cur
        polys.append(nxt)
    return polys


def compute_recurrence(
    moments: np.ndarray, n_hat: int
) -> tuple[RecurrenceCoeffs, OrthonormalBasis]:
    """Build the recurrence and the orthonormal basis from M_0..M_{2n+1}.

    Raises KappaNotPositiveError (with the offending index) if a
    normalization ratio is non-positive, which signals corrupted moments or
    a density supported on too few points for the requested degree.
    """
    check_degree(n_hat)
    moments = np.asarray(moments, dtype=np.longdouble)
    if len(moments) < 2 * n_hat + 2:
        raise ValueError(
            f"need moments M_0..M_{2 * n_hat + 1} for degree {n_hat}, "
            f"got only {len(moments)}"
        )
    if not moments[0] > 0:
        raise KappaNotPositiveError(0, float(moments[0]))

    gamma = np.empty(n_hat + 1, dtype=np.longdouble)
    kappa = np.empty(n_hat + 1, dtype=np.longdouble)
    kappa[0] = 1.0
    pi_prev = np.zeros(1, dtype=np.longdouble)
    pi_cur = np.ones(1, dtype=np.longdouble)
    den_prev = moments[0]
    for i in range(n_hat + 1):
        sq = np.convolve(pi_cur, pi_cur)  # tau coefficients of pi_i^2
        den = np.dot(sq, moments[: len(sq)])
        num = np.dot(sq, moments[1 : len(sq) + 1])
        if i > 0:
            k = den / den_prev
            if not k > 0:
                raise KappaNotPositiveError(i, float(k))
            kappa[i] = k
        elif not den > 0:
            raise KappaNotPositiveError(0, float(den))
        gamma[i] = num / den
        nxt = np.zeros(len(pi_cur) + 1, dtype=np.longdouble)
        nxt[1:] += pi_cur
        nxt[: len(pi_cur)] -= gamma[i] * pi_cur
        nxt[: len(pi_prev)] -= kappa[i] * pi_prev
        pi_prev, pi_cur = pi_cur, nxt
        den_prev = den

    rec = RecurrenceCoeffs(
        gamma=np.asarray(gamma, dtype=float), kappa=np.asarray(kappa, dtype=float)
    )
    # rebuild the polynomials from the rounded coefficients so that basis and
    # any quadrature rule derived from `rec` are mutually consistent
    monic = _monic_from_recurrence(rec.gamma, rec.kappa, n_hat)
    norms = np.sqrt(np.cumprod(rec.kappa))
    phi = tuple(monic[i] / norms[i] for i in range(n_hat + 1))
    return rec, OrthonormalBasis(rec=rec, phi_coeffs=phi)


def basis_values(basis: OrthonormalBasis, x) -> np.ndarray:
    """phi_0..phi_degree at x, stacked along a new last axis, by the
    orthonormal three-term recurrence
    phi_{i+1} = ((x - gamma_i) phi_i - sqrt(kappa_i) phi_{i-1}) / sqrt(kappa_{i+1})."""
    x = np.asarray(x, dtype=float)
    gamma = basis.rec.gamma
    root = np.sqrt(basis.rec.kappa)
    out = np.empty(x.shape + (basis.degree + 1,))
    prev, cur = np.zeros_like(x), np.ones_like(x)
    out[..., 0] = cur
    for i in range(basis.degree):
        prev, cur = cur, ((x - gamma[i]) * cur - root[i] * prev) / root[i + 1]
        out[..., i + 1] = cur
    return out


def eval_basis(basis: OrthonormalBasis, i: int, x):
    """phi_i at x (scalar or array), through the recurrence."""
    if not 0 <= i <= basis.degree:
        raise IndexError(f"basis index {i} out of range [0, {basis.degree}]")
    out = basis_values(basis, x)[..., i]
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def basis_to_dict(rec: RecurrenceCoeffs, basis: OrthonormalBasis) -> dict:
    return {
        "format_version": BASIS_FORMAT_VERSION,
        "degree": basis.degree,
        "gamma": rec.gamma.tolist(),
        "kappa": rec.kappa.tolist(),
        "phi_coeffs": [c.tolist() for c in basis.phi_coeffs],
    }


def basis_from_dict(doc: dict) -> tuple[RecurrenceCoeffs, OrthonormalBasis]:
    version = doc.get("format_version")
    if version != BASIS_FORMAT_VERSION:
        raise ValueError(f"unsupported basis format version {version!r}")
    try:
        rec = RecurrenceCoeffs(
            gamma=np.asarray(doc["gamma"], dtype=float),
            kappa=np.asarray(doc["kappa"], dtype=float),
        )
        n_hat = doc["degree"]
        phi = tuple(np.asarray(c, dtype=float) for c in doc["phi_coeffs"])
        lengths = {"gamma": len(rec.gamma), "kappa": len(rec.kappa), "phi_coeffs": len(phi)}
        sizes_ok = all(n == n_hat + 1 for n in lengths.values())
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed basis document: {exc}") from exc
    if not sizes_ok:
        got = ", ".join(f"{n} {name}" for name, n in lengths.items())
        raise ValueError(
            f"malformed basis document: degree {n_hat} needs {n_hat + 1} "
            f"entries in each of gamma, kappa and phi_coeffs, got {got}"
        )
    for i, c in enumerate(phi):
        if c.shape != (i + 1,):
            raise ValueError(
                f"malformed basis document: phi_coeffs[{i}] has {c.size} "
                f"coefficients, phi_{i} needs {i + 1}"
            )
    return rec, OrthonormalBasis(rec=rec, phi_coeffs=phi)


def save_basis(rec: RecurrenceCoeffs, basis: OrthonormalBasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(basis_to_dict(rec, basis), fh, indent=1)
        fh.write("\n")


def load_basis(path) -> tuple[RecurrenceCoeffs, OrthonormalBasis]:
    with open(path, "r", encoding="utf-8") as fh:
        return basis_from_dict(json.load(fh))
