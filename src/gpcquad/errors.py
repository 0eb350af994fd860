"""Exception types shared across the package, its one check of an integer
argument (`integer`), the read-only copy its checked values hold
(`read_only`) and every decision about its file formats: a JSON report is
`json_text`, a JSON file `write_json` and a CSV file `write_csv` (each builds
its whole text before it opens the file, so a failure leaves the file as it
was), and a model or basis file is read by `read_json` and checked by
`from_document`.

Exit-code mapping used by the CLI: usage/input problems map to 1,
numerical failures (NumericalError subtree) to 2, I/O errors to 3.
"""

import json
from pathlib import Path

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


def json_text(doc) -> str:
    """`doc` as the text of a JSON file or report: indent 1, a final newline."""
    return json.dumps(doc, indent=1) + "\n"


def write_json(path, doc) -> None:
    """Write `doc` to `path` as `json_text`."""
    Path(path).write_text(json_text(doc), encoding="utf-8")


def write_csv(path, header: str, *columns) -> None:
    """Write `header`, then one row of `columns` per index, each field a float's `repr`."""
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_json(path, kind: str):
    """The JSON value in `path`; InvariantViolation naming the path if json cannot read it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deeply
            raise InvariantViolation(f"malformed {kind} document: {path} is not JSON: {exc}") from exc


def from_document(doc, kind: str, version: int, build, *errors):
    """`build(doc)` for a JSON object `doc` whose `format_version` is
    `version`. InvariantViolation naming `kind` otherwise, and in place of
    a KeyError, TypeError, ValueError or one of `errors` that `build` raises."""
    if not isinstance(doc, dict):
        raise InvariantViolation(f"malformed {kind} document: expected a JSON object, got {type(doc).__name__}")
    found = doc.get("format_version")
    if found != version:
        raise InvariantViolation(f"unsupported {kind} format version {found!r}")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError, *errors) as exc:
        raise InvariantViolation(f"malformed {kind} document: {exc}") from exc


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
