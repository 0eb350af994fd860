"""Gauss quadrature rules from recurrence coefficients.

Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix built
from the recurrence (diagonal gamma, off-diagonal sqrt kappa); each weight
is the squared first component of the corresponding unit eigenvector
(Golub & Welsch 1969). The matrix is at most 11x11, so it is formed densely
and handed to numpy's symmetric eigensolver (`numpy.linalg.eigh`, LAPACK),
which loads with numpy itself and keeps scipy off the import path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecdf import TransformParams
from .errors import EigenConvergenceError, NumericalError
from .files import write_json, write_rows
from .orthopoly import OrthonormalBasis, RecurrenceCoeffs, basis_values

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "integrate",
    "orthonormality_error",
    "rule_to_dict",
    "save_rule",
    "save_rule_csv",
]


@dataclass(frozen=True, eq=False)  # == and hash by identity: arrays have no truth value or hash
class QuadratureRule:
    """Nodes (ascending) and positive weights summing to one, in the
    normalized coordinate."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


def gauss_rule(rec: RecurrenceCoeffs) -> QuadratureRule:
    """Quadrature rule with degree+1 nodes, exact for polynomials of degree
    up to 2*degree + 1 against the underlying density.

    Raises `EigenConvergenceError` if the eigensolver does not converge; `rec`
    checked its own entries when it was built.
    """
    off = np.sqrt(rec.kappa[1:])
    jacobi = np.diag(rec.gamma) + np.diag(off, 1) + np.diag(off, -1)
    try:
        values, vectors = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigensolver failed on the {len(rec.gamma)}x{len(rec.gamma)} "
            f"Jacobi matrix: {exc}"
        ) from exc
    weights = vectors[0] ** 2
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
    phi = basis_values(basis, rule.nodes)
    v = phi.T @ (phi * rule.weights[:, None])
    return float(np.max(np.sum(np.abs(np.eye(size) - v), axis=1)))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

RULE_FORMAT_VERSION = 1


def rule_to_dict(rule: QuadratureRule, transform: TransformParams) -> dict:
    return {
        "format_version": RULE_FORMAT_VERSION,
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "nodes_original": transform.denormalize(rule.nodes).tolist(),
    }


def save_rule(rule: QuadratureRule, path, transform: TransformParams) -> None:
    write_json(path, rule_to_dict(rule, transform))


def save_rule_csv(rule: QuadratureRule, path, transform: TransformParams) -> None:
    """The columns of `rule_to_dict`'s fields."""
    columns = rule.nodes, rule.weights, transform.denormalize(rule.nodes)
    write_rows(path, "node,weight,node_original", "%r", *columns)
