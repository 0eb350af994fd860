"""Every decision about gpcquad's file formats, so no other module opens a
file: a JSON report is `json_text`, a JSON file `write_json` and a sample,
points, rule or plot file `write_rows` (each refuses a non-finite number
before it opens the file, so a failure leaves the file as it was), a model
or basis file is read by `read_json` and checked by `from_document`, a
sample or points file is read by `read_rows` and a model source file by
`read_text`.

Every text file is read as UTF-8 with an optional byte-order mark, and a
file that is not UTF-8 is refused naming its first line that is not
(`_not_utf8`). A number field of a model or basis document refuses a bool
or a str (`json_numbers`), which `float()` and numpy would take for numbers.
"""

import functools
import json
import math
from array import array
from pathlib import Path

import numpy as np

from .errors import InvariantViolation


def json_text(doc) -> str:
    """`doc` as the text of a JSON file or report: indent 1, a final newline.
    ValueError for a non-finite number, which RFC 8259 JSON cannot hold."""
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def write_json(path, doc) -> None:
    """Write `doc` to `path` as `json_text`."""
    Path(path).write_text(json_text(doc), encoding="utf-8")


# Values per `%` format or `_g17_fixed` pass in `write_rows`: bounds the
# floats and text held at once to a few hundred kilobytes whatever the row
# count.
_WRITE_BATCH = 1 << 13

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a binary64 into 26-bit halves


@functools.cache
def _g17_tables():
    """The read-only tables of `_g17_fixed`, built on its first call (built
    at import, they raised the peak RSS of every run by 0.6-0.8 MB,
    whether it wrote a sample file or not):

    - 10**k for k <= 22, exact in binary64 (5**22 < 2**53), and the two
      halves of its Veltkamp split, also exact;
    - the four ASCII digits of 0-9999 as one little-endian word each, and
      how many of them are trailing zeros;
    - by word j and by the count p of digits before the point less one,
      the bytes of the j-th 8-byte word of a row that lie after the point,
      which move one place right;
    - by 24 * negative + the newline's column, the columns a row keeps."""
    pow10 = np.array([float(10**k) for k in range(23)])
    big = pow10 * _SPLIT
    big -= big - pow10
    quads = np.arange(10_000, dtype=np.uint32)
    digits4 = sum((48 + quads // 10 ** (3 - i) % 10) << 8 * i for i in range(4)).astype("<u4")
    zeros4 = sum(quads % 10**i == 0 for i in range(1, 5)).astype(np.int8)
    after_point = np.array(
        [[sum(0xFF << 8 * (c - j) for c in range(j, j + 8) if c > p + 1) for p in range(17)] for j in (0, 8, 16)],
        "<u8",
    )
    columns = np.arange(24)
    keep = (columns >= np.array([1, 0])[:, None, None]) & (columns <= columns[:, None])
    tables = pow10, big, pow10 - big, digits4, zeros4, after_point, keep.reshape(48, 24).view("V24").ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _dekker(size, k):
    """(hi, lo) with hi = fl(size * 10**k) and hi + lo = size * 10**k exactly:
    Dekker's product of Veltkamp-split factors, which needs no fused
    multiply-add (numpy never contracts across ufunc calls)."""
    pow10, pow10_hi, pow10_lo = _g17_tables()[:3]
    hi = size * pow10[k]
    big = size * _SPLIT
    big -= big - size
    small = size - big
    lo = big * pow10_hi[k]
    lo -= hi
    big *= pow10_lo[k]
    lo += big
    del big
    part = pow10_hi[k]
    part *= small
    lo += part
    small *= pow10_lo[k]
    lo += small
    return hi, lo


def _g17_fixed(x):
    """`"%.17g\\n" % v` for each value v of `x`, whose magnitudes must lie
    in [1e-4, 1e16), where `%g` writes fixed notation: the text as a uint8
    array of ASCII, and each row's length.

    Exact: 10**k scales |v| to [1e16, 1e17), the product is held exactly
    as hi + lo, and D = hi + rint(lo) rounds it half to even to 17 digits,
    as `%` does (hi >= 2**53 is an even integer). D never rounds up to
    10**17: no binary64 value in the range lies within half a unit of the
    17th digit below a power of ten (a test checks each). The digits are
    laid out by 4-digit table words in a 24-byte row of "0"s, read back as
    one window a row from where `%g` starts, after the leading "0.000" its
    exponent needs; the digits after the point move one byte right, and
    the row keeps its sign and its digits up to the last that is not a
    trailing zero of the fraction, then a newline."""
    # each temporary is deleted after its last use: at `_WRITE_BATCH` values
    # the peak stays under tests/test_memory.py's bound for the writer
    *_, digits4, zeros4, after_point, keep = _g17_tables()
    n = x.size
    size = np.abs(x)
    k = np.log10(size)
    np.floor(k, out=k)
    k = (16 - k).astype(np.intp)  # within one of the k that puts size * 10**k in [1e16, 1e17)
    hi, lo = _dekker(size, k)
    off = np.flatnonzero((hi < 1e16) | (hi == 1e16) & (lo < 0) | (hi > 1e17) | (hi == 1e17) & (lo >= 0))
    if off.size:
        k[off] += np.where(hi[off] <= 1e16, 1, -1)
        hi[off], lo[off] = _dekker(size[off], k[off])
    del size
    d = hi.astype(np.int64)
    del hi
    d += np.rint(lo, out=lo).astype(np.int64)
    del lo
    e = (16 - k).astype(np.int8)  # the decimal exponent of the first digit
    del k
    # the words of a row: "0000", "000" and the first digit, then four words
    # of four digits; a last row of "0"s gives every window its 24 bytes
    words = np.full((n + 1, 6), 0x30303030, "<u4")
    high, low = np.divmod(d, 10**8)
    del d
    first, high = np.divmod(high.astype(np.uint32), 10**8)
    first += 48
    first <<= 24
    first |= 0x303030
    words[:n, 1] = first
    del first
    q0, q1 = np.divmod(high, 10**4)
    q2, q3 = np.divmod(low.astype(np.uint32), 10**4)
    del high, low
    for j, q in enumerate((q0, q1, q2, q3), 2):
        words[:n, j] = digits4[q]
    zeros = zeros4[q0] + 12  # trailing zeros of the 17 digits
    for shift, q in ((8, q1), (4, q2), (0, q3)):
        np.copyto(zeros, zeros4[q] + shift, where=q != 0)
    del q0, q1, q2, q3, q
    lead = np.maximum(-e, 0)  # zeros before the first digit: "0.00ddd" has 3
    point = np.maximum(e, 0)  # digits before the point, less one
    del e
    zeros -= lead
    np.subtract(16, zeros, out=zeros)  # the last digit that is not a trailing zero
    length = np.where(zeros > point, zeros + 2, point + 1)  # without sign and newline
    del zeros
    # column 0 holds the sign; the first digit ("0" if e < 0) is in column 1
    windows = np.ndarray((words.size * 4 - 23,), "V24", words, strides=(1,))
    out = windows[np.arange(6, 24 * n, 24) - lead].view(np.uint8).reshape(n, 24)
    del windows, words, lead
    out64 = out.view("<u8")
    for j in (2, 1, 0):  # right to left, so each word reads its left neighbour unmoved
        moved = out64[:, j] << 8
        if j:
            moved |= out64[:, j - 1] >> 56
        moved ^= out64[:, j]
        moved &= after_point[j][point]
        out64[:, j] ^= moved
    del moved, out64
    out[:, 0] = 45  # "-", kept by negative rows only
    at = np.arange(0, 24 * n, 24)
    flat = out.reshape(-1)
    flat[at + 2 + point] = 46  # "."; the newline takes its place if no digit follows it
    del point
    at += 1
    at += length
    flat[at] = 10
    del at
    negative = x < 0
    length += 1
    np.add(length, 24, out=length, where=negative)
    kept = keep[length].view(bool).reshape(n, 24)
    np.subtract(length, 23, out=length, where=negative)
    return out[kept], length


def _write_g17(fh, values) -> None:
    """Write `"%.17g\\n" % v` for each float64 v in `values` to `fh`:
    `_g17_fixed`'s text, with each value outside its range (0, -0,
    subnormals, |v| < 1e-4 and |v| >= 1e16) formatted by `%` in its row."""
    size = np.abs(values)
    fixed = (size >= 1e-4) & (size < 1e16)
    del size
    if fixed.all():
        fh.write(str(_g17_fixed(values)[0], "ascii"))
        return
    other = np.flatnonzero(~fixed)
    text, lengths = _g17_fixed(values[fixed])
    # where each other row goes in `text`: after the fixed rows before it
    cuts = np.concatenate(([0], np.cumsum(lengths)))[other - np.arange(other.size)]
    del lengths
    text, start = str(text, "ascii"), 0
    for cut, value in zip(cuts.tolist(), values[other].tolist()):
        fh.write(text[start:cut])
        fh.write("%.17g\n" % value)
        start = cut
    fh.write(text[start:])


def write_rows(path, header, field: str, *columns) -> None:
    """Write `header` (unless None), then one line per index: the columns'
    values as Python floats in the `%` format `field`, joined by commas.
    ValueError before the file is opened for a column that is not 1-D or
    holds a non-finite value, or for columns of unequal lengths. The rows
    are stacked and formatted `_WRITE_BATCH` values at a time; a single
    `%.17g` column (a sample file) is formatted by `_write_g17`, which
    writes the same text."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    for column in columns:
        if column.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {column.shape}")
        if not np.isfinite(column).all():  # no mask outlives the check
            bad = int(np.argmin(np.isfinite(column)))
            raise ValueError(f"expected finite values, got {column[bad]} at index {bad}")
    if len({column.size for column in columns}) > 1:
        lengths = ", ".join(str(column.size) for column in columns)
        raise ValueError(f"expected columns of one length, got lengths {lengths}")
    line, batch = ",".join([field] * len(columns)) + "\n", _WRITE_BATCH // len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, columns[0].size, batch):
            if line == "%.17g\n":
                _write_g17(fh, columns[0][start : start + batch])
                continue
            rows = np.column_stack([column[start : start + batch] for column in columns])
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def read_json(path, kind: str):
    """The JSON value in the text `read_text` reads from `path`;
    InvariantViolation naming the path if json cannot read it."""
    text = read_text(path)
    try:
        return json.loads(text)
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


def _numbers(row: str):
    """The numbers in the fields of `row` that are not blank, each read by
    `float()`, or () if one of them is not a number."""
    try:
        return [*map(float, filter(str.strip, row.split(",")))]
    except ValueError:
        return ()


def read_rows(path, columns: int, noun: str, error) -> np.ndarray:
    """The rows of a sample file (`columns` 1) or points file (`columns` 2):
    one value per row, or an array of shape (rows, columns).

    UTF-8 text with an optional byte-order mark; blank lines and blank fields
    are skipped; the first line that is not blank is a header if its first
    field is not a number; every other line holds `columns` finite numbers,
    each read by `float()`. Raises `error` naming the path and the 1-based
    line of the first line that is not UTF-8, else of the first bad row, or
    "no {noun} in {path}". Lines are read in batches, and a one-column batch
    of plain numbers is converted by one `np.array` call; any other batch is
    read row by row, each row checked as it is read. Only the values are
    held whole, never the file's text."""
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
                        numbers = _numbers(row)
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


def json_numbers(value, field: str):
    """`value`, unless it is, or a list nested in it to any depth holds, a
    bool or a str: TypeError naming `field` and the first such element.
    json reads `true` and `"0.1"` as a bool and a str, which `float()` and
    numpy would take for numbers. One type test per element."""
    stack = [(field, value)]
    while stack:
        field, item = stack.pop()
        if isinstance(item, (bool, str)):
            raise TypeError(f"{field} is {json.dumps(item)}, not a number")
        if type(item) is list and not {*map(type, item)} <= {int, float}:
            stack += reversed([(f"{field}[{i}]", entry) for i, entry in enumerate(item)])
    return value


def from_document(doc, kind: str, version: int, build, *errors):
    """`build(doc)` for a JSON object `doc` whose `format_version` is
    `version`. InvariantViolation naming `kind` otherwise, and in place of
    a KeyError, TypeError, ValueError, OverflowError (an integer too large
    for a float) or one of `errors` that `build` raises."""
    if not isinstance(doc, dict):
        raise InvariantViolation(f"malformed {kind} document: expected a JSON object, got {type(doc).__name__}")
    found = doc.get("format_version")
    if found != version:
        raise InvariantViolation(f"unsupported {kind} format version {found!r}")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError, OverflowError, *errors) as exc:
        raise InvariantViolation(f"malformed {kind} document: {exc}") from exc
