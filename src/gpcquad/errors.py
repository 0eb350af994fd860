"""Exception types shared across the package, its one check of an integer
argument (`integer`), the read-only copy its checked values hold
(`read_only`) and every decision about its file formats, so no other
module opens a file: a JSON report is `json_text`, a JSON file `write_json`
and a sample, points, rule or plot file `write_rows` (each refuses a
non-finite number before it opens the file, so a failure leaves the file as
it was), a model or basis file is read by `read_json` and checked by
`from_document`, a sample or points file is read by `read_rows` and a
model source file by `read_text`.

Exit-code mapping used by the CLI: usage/input problems map to 1,
numerical failures (NumericalError subtree) to 2, I/O errors to 3.
"""

import json
import math
from array import array
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
    """`doc` as the text of a JSON file or report: indent 1, a final newline.
    ValueError for a non-finite number, which RFC 8259 JSON cannot hold."""
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def write_json(path, doc) -> None:
    """Write `doc` to `path` as `json_text`."""
    Path(path).write_text(json_text(doc), encoding="utf-8")


# Values per `%` format in `write_rows`: bounds the floats and text held at
# once to a few hundred kilobytes whatever the row count.
_WRITE_BATCH = 1 << 13


def write_rows(path, header, field: str, *columns) -> None:
    """Write `header` (unless None), then one line per index: the columns'
    values as Python floats in the `%` format `field`, joined by commas.
    ValueError before the file is opened for a column that is not 1-D or
    holds a non-finite value. The rows are stacked and formatted
    `_WRITE_BATCH` values at a time."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    for column in columns:
        if column.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {column.shape}")
        finite = np.isfinite(column)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"expected finite values, got {column[bad]} at index {bad}")
    line, batch = ",".join([field] * len(columns)) + "\n", _WRITE_BATCH // len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, columns[0].size, batch):
            rows = np.column_stack([column[start : start + batch] for column in columns])
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def read_json(path, kind: str):
    """The JSON value in `path`; InvariantViolation naming the path if json cannot read it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deeply
            raise InvariantViolation(f"malformed {kind} document: {path} is not JSON: {exc}") from exc


# Characters per batch of lines in `read_rows` (`readlines`' size hint):
# a few thousand rows, whose strings stay small beside the values.
_ROW_BATCH = 1 << 16


def _not_utf8(path, error):
    """`error` naming `path` and its first line (LF, CRLF or CR ended) that is not UTF-8."""
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines())
        for i, line in enumerate(lines, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return error(f"{path}, line {i}: not UTF-8 text")
    raise AssertionError(f"{path} decodes as UTF-8")


def read_text(path) -> str:
    """`path` read as UTF-8 with an optional byte-order mark, or InvariantViolation from `_not_utf8`."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path, InvariantViolation) from None


def read_rows(path, columns: int, noun: str, error) -> np.ndarray:
    """The rows of a sample file (`columns` 1) or points file (`columns` 2):
    one value per row, or an array of shape (rows, columns).

    UTF-8 text with an optional byte-order mark; blank lines and blank fields
    are skipped; the first line that is not blank is a header if its first
    field is not a number; every other line holds `columns` finite numbers,
    each read by `float()`. Raises `error` naming the path and the 1-based
    line of the first line that is not UTF-8, else of the first bad row, or
    "no {noun} in {path}". Lines are read in batches, and a one-column batch
    of plain numbers is converted by one `np.array` call. Only the values
    are held whole, never the file's text."""
    expected = ("one finite number", "two finite numbers")[columns - 1]
    values = array("d")
    head = True  # no line that is not blank read yet
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                end = 0  # lines read so far
                for lines in iter(lambda: fh.readlines(_ROW_BATCH), []):
                    start, end = end + 1, end + len(lines)  # `start`: the first line's number
                    if head:  # drop the blank lines before the first row, and a header
                        skip = next((j for j, line in enumerate(lines) if line.strip()), len(lines))
                        if skip < len(lines):
                            head = False
                            try:
                                float(lines[skip].strip().split(",")[0])
                            except ValueError:  # a header: the values start on the next line
                                skip += 1
                        start += skip
                        del lines[:skip]
                    if columns == 1:
                        try:
                            batch = np.array(lines, dtype=float)
                        except ValueError:  # a blank line, a CSV field or a bad row
                            batch = None
                        if batch is not None and np.isfinite(batch).all():
                            values.frombytes(batch.tobytes())
                            continue
                    for i, line in enumerate(lines, start):
                        row = line.strip()
                        try:
                            numbers = [*map(float, filter(str.strip, row.split(",")))]
                        except ValueError:
                            numbers = ()
                        if row and (len(numbers) != columns or not all(map(math.isfinite, numbers))):
                            raise error(f"{path}, row {i}: expected {expected}, got {row!r}")
                        values.extend(numbers)
            except error:
                for _ in fh:  # a line that is not UTF-8 anywhere in the file is named first
                    pass
                raise
    except UnicodeDecodeError:
        raise _not_utf8(path, error) from None
    if not values:
        raise error(f"no {noun} in {path}")
    values = np.frombuffer(values)
    return values if columns == 1 else values.reshape(-1, columns)


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
