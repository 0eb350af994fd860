"""Gauss quadrature rules from recurrence coefficients.

Nodes are the eigenvalues of the symmetric tridiagonal matrix built from
the recurrence (diagonal gamma, off-diagonal sqrt kappa); each weight is
the squared first component of the corresponding unit eigenvector. The
eigensolver is an implicit-shift QL iteration that accumulates only the
first row of the rotation product: the matrices are at most 11x11 and the
weights need nothing else, so no dense linear-algebra dependency is pulled
in for this step. The iteration runs on Python lists of floats, whose
arithmetic is the same IEEE double arithmetic as on numpy scalars without
the boxing; the arrays come back only for the final sort.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ecdf import TransformParams
from .errors import EigenConvergenceError, NumericalError
from .orthopoly import OrthonormalBasis, RecurrenceCoeffs

__all__ = [
    "JacobiMatrix",
    "QuadratureRule",
    "build_jacobi",
    "tridiag_eigen",
    "gauss_rule",
    "integrate",
    "orthonormality_error",
    "rule_to_dict",
    "save_rule",
    "save_rule_csv",
]

_DEFLATION_REL = 1e-15
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix: diagonal gamma_0..gamma_n, off-diagonal
    sqrt(kappa_1)..sqrt(kappa_n)."""

    diag: np.ndarray
    offdiag: np.ndarray


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (ascending) and positive weights summing to one, in the
    normalized coordinate."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


def build_jacobi(rec: RecurrenceCoeffs) -> JacobiMatrix:
    for name, values in (("gamma", rec.gamma), ("kappa", rec.kappa)):
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise NumericalError(f"{name}_{bad} = {values[bad]} is not finite")
    kappa_tail = rec.kappa[1:]
    if np.any(kappa_tail <= 0):
        bad = int(np.flatnonzero(kappa_tail <= 0)[0]) + 1
        raise NumericalError(f"kappa_{bad} = {rec.kappa[bad]:.6e} is not positive")
    return JacobiMatrix(diag=rec.gamma.copy(), offdiag=np.sqrt(kappa_tail))


def tridiag_eigen(J: JacobiMatrix) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and first components of unit eigenvectors.

    Implicit-shift QL with Wilkinson shift; the Givens rotations are applied
    to a single row vector started at e_1, which ends up holding u_{1,j}.
    """
    d = np.asarray(J.diag, dtype=float).tolist()
    n = len(d)
    if len(J.offdiag) != n - 1:
        raise NumericalError(
            f"off-diagonal length {len(J.offdiag)} does not match size {n}"
        )
    e = np.asarray(J.offdiag, dtype=float).tolist() + [0.0]
    if not all(map(math.isfinite, d + e)):
        raise NumericalError("Jacobi matrix has a non-finite entry")
    z = [0.0] * n
    z[0] = 1.0
    for l in range(n):
        for sweep in range(_MAX_SWEEPS + 1):
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= _DEFLATION_REL * dd:
                    m = mm
                    break
            if m == l:
                break
            if sweep == _MAX_SWEEPS:
                raise EigenConvergenceError(
                    f"QL failed to converge for eigenvalue {l} "
                    f"after {_MAX_SWEEPS} sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    d = np.array(d)
    order = np.argsort(d, kind="stable")
    return d[order], np.array(z)[order]


def gauss_rule(rec: RecurrenceCoeffs) -> QuadratureRule:
    """Quadrature rule with degree+1 nodes, exact for polynomials of degree
    up to 2*degree + 1 against the underlying density."""
    values, first_row = tridiag_eigen(build_jacobi(rec))
    weights = first_row**2
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise NumericalError(
            f"eigenvector first-row norm defect {abs(total - 1.0):.2e} "
            f"exceeds 1e-12; eigensolve unreliable"
        )
    weights = weights / total
    if np.any(weights <= 0.0):
        raise NumericalError("non-positive quadrature weight")
    if np.any(np.diff(values) <= 0.0):
        raise NumericalError("quadrature nodes are not strictly increasing")
    return QuadratureRule(nodes=values, weights=weights)


def integrate(rule: QuadratureRule, g) -> float:
    """Weighted sum of g over the nodes."""
    vals = np.array([float(g(x)) for x in rule.nodes])
    if not np.all(np.isfinite(vals)):
        bad = rule.nodes[~np.isfinite(vals)][0]
        raise NumericalError(f"integrand not finite at node {bad}")
    return float(np.dot(vals, rule.weights))


def orthonormality_error(basis: OrthonormalBasis, rule: QuadratureRule) -> float:
    """Max-row-sum norm of I - V, where V holds the quadrature-evaluated
    pairwise inner products of the basis functions. Near zero certifies
    that basis and rule are mutually consistent."""
    size = basis.degree + 1
    if rule.size != size:
        raise ValueError(
            f"rule has {rule.size} nodes but the basis needs {size}"
        )
    # one Horner pass for all functions over the zero-padded coefficient
    # matrix: a leading zero gives +0 * x + 0 = +0 and then +0 * x + c = c,
    # so each column has the bits eval_basis gives it at finite nodes
    coeffs = np.zeros((size, size))
    for i, c in enumerate(basis.phi_coeffs):
        coeffs[i, : len(c)] = c
    x = rule.nodes[:, None]
    phi = np.zeros((rule.size, size)) + coeffs[:, -1]
    for j in range(size - 2, -1, -1):
        phi = phi * x + coeffs[:, j]
    v = phi.T @ (phi * rule.weights[:, None])
    return float(np.max(np.sum(np.abs(np.eye(size) - v), axis=1)))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

RULE_FORMAT_VERSION = 1


def rule_to_dict(rule: QuadratureRule, transform: TransformParams | None = None) -> dict:
    doc = {
        "format_version": RULE_FORMAT_VERSION,
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
    }
    if transform is not None:
        doc["nodes_original"] = transform.denormalize(rule.nodes).tolist()
    return doc


def save_rule(rule: QuadratureRule, path, transform: TransformParams | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rule_to_dict(rule, transform), fh, indent=1)
        fh.write("\n")


def save_rule_csv(
    rule: QuadratureRule, path, transform: TransformParams | None = None
) -> None:
    original = (
        transform.denormalize(rule.nodes)
        if transform is not None
        else rule.nodes
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,weight,node_original\n")
        for x, w, xo in zip(rule.nodes, rule.weights, original):
            fh.write(f"{float(x)!r},{float(w)!r},{float(xo)!r}\n")
