"""Exception types shared across the package, its one check of an integer
argument (`integer`) and the read-only copy its checked values hold
(`read_only`). Every file format is in `files`.

Exit-code mapping used by the CLI: usage/input problems map to 1,
numerical failures (NumericalError subtree) to 2, I/O errors to 3.
"""

import numpy as np


def integer(value, name: str, lo: int, hi: int | None = None, error=ValueError) -> int:
    """`value` as an int, or `error` naming `name`: it must be an int or a
    numpy integer, not a bool, within [lo, hi] (no upper bound if hi is None)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < lo or hi is not None and value > hi:
        bound = f"at least {lo}" if hi is None else f"within [{lo}, {hi}]"
        raise error(f"{name} must be {bound}, got {value}")
    return int(value)


def read_only(values) -> np.ndarray:
    """A float copy of `values` that refuses in-place writes, so that no
    caller can undo the check of the value that holds it: its memory is an
    immutable `bytes`, so not even its WRITEABLE flag can be set back.
    Complex values raise TypeError, where a cast would drop their imaginary
    parts."""
    if np.iscomplexobj(values):
        raise TypeError(f"expected real values, got {np.asarray(values).dtype}")
    values = np.asarray(values, dtype=float)
    return np.frombuffer(values.tobytes()).reshape(values.shape)


class GpcquadError(Exception):
    """Base class for all package errors."""


class ModelSyntaxError(GpcquadError):
    """Malformed model source. Carries 1-based line/column of the offense."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EvaluationError(GpcquadError):
    """Model evaluation produced a non-finite value or hit a domain error."""


class DegenerateSamplesError(GpcquadError):
    """Sample set has zero range (all values equal) or too few values."""


class SelectionError(GpcquadError):
    """Interpolation-point selection cannot satisfy the step constraint."""


class InvariantViolation(GpcquadError):
    """A constructed object failed its own consistency checks."""


class NumericalError(GpcquadError):
    """Numerical failure that invalidates downstream results."""


class KappaNotPositiveError(NumericalError):
    """Recurrence normalization ratio came out non-positive.

    This is the moment-corruption tripwire: the ratio is a quotient of
    integrals of squares against a non-negative density, so a non-positive
    value means the moment vector is inconsistent with any density.
    """

    def __init__(self, index: int, value: float):
        super().__init__(
            f"kappa_{index} = {value:.6e} is not positive; "
            f"moment sequence is corrupted or degree is too high"
        )
        self.index = index
        self.value = value


class EigenConvergenceError(NumericalError):
    """numpy's symmetric eigensolver (LAPACK, via `numpy.linalg.eigh`) did not
    converge on the Jacobi matrix of a recurrence."""
