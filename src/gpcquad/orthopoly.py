"""Monic orthogonal polynomials and the orthonormal basis from moments.

The three-term recurrence coefficients are obtained by contracting the
squared coefficient vectors of each monic polynomial with the moment
sequence. The contraction is carried out in the widest hardware float
(80-bit extended on x86) because the map from moments to recurrence
coefficients is badly conditioned at high degree; the degree cap and the
positivity tripwire on the normalization ratios bound the damage.

The basis is the recurrence: it is evaluated through the orthonormal form
of the recurrence, and its monomial coefficients, the published output, are
derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KappaNotPositiveError, NumericalError, from_document, integer, read_json, read_only, write_json

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


def check_degree(n_hat: int) -> int:
    """n_hat as an int; ValueError unless it is an integer, not a bool, in
    [0, DEGREE_CAP]."""
    return integer(n_hat, "degree", 0, DEGREE_CAP)


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no truth value or hash
class RecurrenceCoeffs:
    """gamma_0..gamma_n and kappa_0..kappa_n (kappa_0 = 1) of the monic
    recurrence pi_{i+1}(x) = (x - gamma_i) pi_i(x) - kappa_i pi_{i-1}(x),
    each a read-only float copy. Building one (`dataclasses.replace`, `copy`
    and `pickle` included) raises NumericalError naming the first entry that
    makes it no recurrence: gamma and kappa empty, not 1-D or of different
    lengths, a non-finite entry, kappa_0 != 1 or kappa_i <= 0 for i >= 1."""

    gamma: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", read_only(self.gamma))
        object.__setattr__(self, "kappa", read_only(self.kappa))
        gamma, kappa = self.gamma, self.kappa
        if np.ndim(gamma) != 1 or np.ndim(kappa) != 1 or not len(gamma):
            raise NumericalError("gamma and kappa must be non-empty 1-D arrays")
        if len(kappa) != len(gamma):
            raise NumericalError(f"recurrence has {len(gamma)} gamma but {len(kappa)} kappa coefficients")
        for name, values in (("gamma", gamma), ("kappa", kappa)):
            if not np.isfinite(values).all():
                bad = int(np.argmin(np.isfinite(values)))
                raise NumericalError(f"{name}_{bad} = {values[bad]} is not finite")
        if kappa[0] != 1.0:
            raise NumericalError(f"kappa_0 = {kappa[0]} is not 1")
        if np.any(kappa[1:] <= 0):
            bad = int(np.argmax(kappa[1:] <= 0)) + 1
            raise NumericalError(f"kappa_{bad} = {kappa[bad]:.6e} is not positive")

    def __reduce__(self):
        return type(self), (self.gamma, self.kappa)

    @property
    def degree(self) -> int:
        return len(self.gamma) - 1


@dataclass(frozen=True)
class OrthonormalBasis:
    """The orthonormal polynomials phi_i = pi_i / sqrt(kappa_0 ... kappa_i)
    of a recurrence, i = 0..degree. Values are taken through the recurrence
    (`basis_values`), since Horner on the monomial coefficients loses
    accuracy as the degree grows."""

    rec: RecurrenceCoeffs

    @property
    def degree(self) -> int:
        return self.rec.degree

    @property
    def phi_coeffs(self) -> tuple:
        """The published coefficient vectors of phi_0..phi_degree (ascending
        powers), from the monic pi_i the recurrence builds. Raises
        NumericalError naming the first phi_i whose norm
        sqrt(kappa_0 ... kappa_i) is not finite and positive in float64, or
        else the first whose coefficients are not finite there."""
        gamma, kappa = self.rec.gamma, self.rec.kappa
        with np.errstate(over="ignore", under="ignore"):
            norms = np.sqrt(np.cumprod(kappa))
        bad = ~(np.isfinite(norms) & (norms > 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalError(
                f"the norm sqrt(kappa_0 ... kappa_{i}) = {norms[i]} of phi_{i} is not finite and positive in float64"
            )
        monic, prev = [np.array([1.0])], np.zeros(1)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self.degree):
                cur, nxt = monic[i], np.zeros(i + 2)
                nxt[1:] += cur
                nxt[: i + 1] -= gamma[i] * cur
                nxt[: len(prev)] -= kappa[i] * prev
                prev = cur
                monic.append(nxt)
            phi = tuple(monic[i] / norms[i] for i in range(self.degree + 1))
        for i, c in enumerate(phi):
            if not np.isfinite(c).all():
                raise NumericalError(f"the coefficients of phi_{i} are not finite in float64")
        return phi


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

    # the basis and any quadrature rule both come from the rounded
    # coefficients, so they are mutually consistent
    rec = RecurrenceCoeffs(gamma=gamma, kappa=kappa)
    return rec, OrthonormalBasis(rec)


def basis_values(basis: OrthonormalBasis, x) -> np.ndarray:
    """phi_0..phi_degree at x, stacked along a new last axis, by the
    orthonormal three-term recurrence
    phi_{i+1} = ((x - gamma_i) phi_i - sqrt(kappa_i) phi_{i-1}) / sqrt(kappa_{i+1}).
    A non-finite x raises ValueError naming its (flat) index, and a point
    where a value overflows raises NumericalError naming it."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        j = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"cannot evaluate the basis at a non-finite point: x is {x.flat[j]} at index {j}")
    gamma = basis.rec.gamma
    root = np.sqrt(basis.rec.kappa)
    out = np.empty(x.shape + (basis.degree + 1,))
    prev, cur = np.zeros_like(x), np.ones_like(x)
    out[..., 0] = cur
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(basis.degree):
            prev, cur = cur, ((x - gamma[i]) * cur - root[i] * prev) / root[i + 1]
            out[..., i + 1] = cur
    if not np.all(np.isfinite(out)):
        j = int(np.argmin(np.isfinite(out).all(axis=-1)))
        raise NumericalError(f"the basis overflows float64 at x = {x.flat[j]} (index {j})")
    return out


def eval_basis(basis: OrthonormalBasis, i: int, x):
    """phi_i at x (scalar or array), through the recurrence (`basis_values`,
    whose errors it raises); IndexError unless i is an integer in [0, degree]."""
    i = integer(i, "basis index", 0, basis.degree, IndexError)
    out = basis_values(basis, x)[..., i]
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def basis_to_dict(basis: OrthonormalBasis) -> dict:
    return {
        "format_version": BASIS_FORMAT_VERSION,
        "degree": basis.degree,
        "gamma": basis.rec.gamma.tolist(),
        "kappa": basis.rec.kappa.tolist(),
        "phi_coeffs": [c.tolist() for c in basis.phi_coeffs],
    }


def basis_from_dict(doc: dict) -> tuple[RecurrenceCoeffs, OrthonormalBasis]:
    """InvariantViolation unless the document's gamma and kappa build a
    recurrence, `doc` is an object, `degree` is its degree and `phi_coeffs`
    are, bit for bit, its basis's."""
    def build(doc):
        rec = RecurrenceCoeffs(gamma=doc["gamma"], kappa=doc["kappa"])
        n_hat, phi = check_degree(doc["degree"]), doc["phi_coeffs"]
        for name, n in (("gamma and kappa", rec.degree + 1), ("phi_coeffs", len(phi))):
            if n != n_hat + 1:
                raise ValueError(f"degree {n_hat} needs {n_hat + 1} entries in {name}, got {n}")
        basis = OrthonormalBasis(rec)
        for i, want in enumerate(basis.phi_coeffs):
            got = np.asarray(phi[i], dtype=float)
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                raise ValueError(f"phi_coeffs[{i}] = {got.tolist()} is not {want.tolist()}, "
                                 f"the phi_{i} its gamma and kappa give")
        return rec, basis
    return from_document(doc, "basis", BASIS_FORMAT_VERSION, build, NumericalError)


def save_basis(basis: OrthonormalBasis, path) -> None:
    write_json(path, basis_to_dict(basis))


def load_basis(path) -> tuple[RecurrenceCoeffs, OrthonormalBasis]:
    return basis_from_dict(read_json(path, "basis"))
