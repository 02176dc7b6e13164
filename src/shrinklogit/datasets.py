"""CSV ingestion, serialization, and multicollinearity diagnostics.

The input format is RFC-4180-style comma separated text, UTF-8 (a
leading byte-order mark, as Excel writes, is skipped), with a '.'
decimal separator and an optional header row. Missing values are a
hard error; every parse failure is reported with its 1-based row (and
column) number.

A well-formed regular file (unquoted numbers of one width under a
header line, quoted or not, that ``csv.reader`` reads on its own;
responses in {0, 1}; no line longer than ``csv.field_size_limit()``) is
read in one vectorised pass: ``np.loadtxt`` is handed the open handle,
past the header line, and tokenizes the rest in C, so the file is read
as the text it is, whatever its name. The line-length rule is checked
first by one chunked scan of the bytes, skipped for a file no longer than
the limit. Every other file, and so every error, goes through a
field-by-field ``csv.reader`` loop, which converts each row as it reads
it and so reports the first problem in file order. A stream (a pipe, a
FIFO, ``/dev/stdin``) can be read only once, so it goes to the loop
alone. Both passes hand :func:`load_csv` the parsed table, which it
splits once, writing the intercept in place, and :func:`save_csv`
converts a block of rows at a time: reading or writing a large dataset
needs little more memory than its arrays.

``importlib.resources`` is imported in :func:`bundled_dataset_path`, the
one function that uses it, so that loading the package does not load it.
"""

from __future__ import annotations

import csv
import os
import stat
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import ConstantColumnError, CsvParseError, NonBinaryResponseError
from .linalg import positive_definite, symmetrize
from .logit import Dataset, _index

__all__ = [
    "DiagnosticsReport",
    "load_csv",
    "save_csv",
    "diagnostics",
    "bundled_dataset_path",
]


def bundled_dataset_path() -> Path:
    """Path of the bundled synthetic application dataset.

    83 rows, four strongly correlated predictors and a binary response,
    generated by demos/make_synthetic_dataset.py to mimic a small
    municipal statistics extract with severe multicollinearity. The
    original administrative data is not redistributable, so the bundled
    file is synthetic by construction.
    """
    from importlib import resources

    return Path(resources.files("shrinklogit").joinpath("data/municipal_synthetic.csv"))


def _resolve_response(response_column, names, ncols, header):
    if isinstance(response_column, str):
        if not header:
            raise CsvParseError(
                f"response column {response_column!r} named but the file has no header"
            )
        if response_column not in names:
            raise CsvParseError(f"response column {response_column!r} not found in header {names}")
        idx = names.index(response_column)  # a header wider than the body may name a column past it
    else:
        idx = _index(response_column, f"response_column must be an integer or a column name, got {response_column!r}")
    if not -ncols <= idx < ncols:
        raise CsvParseError(f"response column index {idx} out of range for {ncols} columns")
    return idx % ncols


def load_csv(
    path,
    header: bool = True,
    response_column=0,
    intercept: bool = True,
) -> Dataset:
    """Read a dataset from CSV.

    ``response_column`` may be an index or, when ``header`` is set, a
    column name. With ``intercept`` a constant-1 column is prepended to
    the predictors.

    A well-formed regular file is read in one vectorised pass: every line
    after the header is unquoted numbers of one width, the header line is
    not blank, is one ``csv.reader`` row on its own (quoted or not) and is
    as wide as the body, no line is longer than ``csv.field_size_limit()``
    bytes, and every response is 0 or 1. That pass hands ``np.loadtxt`` the
    handle that read the header, so the file is read as the text it is,
    whatever its name. Any other file goes through the field-by-field
    loop, the one source of the errors below, which reads the same values
    and converts each row as it reads it, so the first problem in file
    order is reported. A stream (a pipe, a FIFO, ``/dev/stdin``), which
    can be read only once, is read by the loop alone. y is copied out of
    the parsed table; with ``intercept`` X is the table itself, the
    columns before the response moved right by one and the ones written
    into column 0. Memory is a small multiple of the arrays returned.

    Raises
    ------
    CsvParseError
        For ragged rows, empty fields, non-numeric fields, or a field
        longer than ``csv.field_size_limit()``, with the offending 1-based
        row (and column); for a response column outside the data rows; or
        for a file that is not UTF-8 text.
    NonBinaryResponseError
        If a response value parses to something other than 0 or 1.
    ValueError
        If ``response_column`` is neither an integer (a bool is not one)
        nor a string.
    """
    vectorised = stat.S_ISREG(os.stat(path).st_mode) and _read_vectorised(path, header, response_column)
    table, index = vectorised or _read_checked(path, header, response_column)
    y = table[:, index].copy()
    if not intercept:
        return Dataset(X=np.delete(table, index, axis=1), y=y)
    for j in range(index, 0, -1):  # column by column: no temporary copy
        table[:, j] = table[:, j - 1]
    table[:, 0] = 1.0
    return Dataset(X=table, y=y, has_intercept=True)


def _not_utf8(path, err: UnicodeDecodeError) -> CsvParseError:
    return CsvParseError(f"{path}: not UTF-8 text ({err.reason})")


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 scenario file, a leading byte-order mark
    skipped, so that a byte that is not UTF-8 is a CsvParseError naming
    the file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read().split("\n")
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None


#: Bytes that :func:`_lines_within` reads at a time: small, so that the scan
#: adds little to the peak memory of a read.
SCAN_CHUNK_BYTES = 1 << 16


def _lines_within(path, limit) -> bool:
    """Whether no line of the file is longer than ``limit`` bytes, its end
    (LF, CRLF or CR) not counted: ``csv.reader`` refuses a field longer
    than ``limit`` characters, and a line has no fewer bytes than
    characters. One pass over the bytes, :data:`SCAN_CHUNK_BYTES` at a
    time, each search looking at most ``limit + 1`` bytes ahead."""
    with open(path, "rb") as handle:
        rest = b""
        while chunk := handle.read(SCAN_CHUNK_BYTES):
            buffer, start = rest + chunk, 0
            while True:  # jump to the last line end within limit + 1 bytes
                ahead = start + limit + 1
                end = max(buffer.rfind(b"\n", start, ahead), buffer.rfind(b"\r", start, ahead))
                if end < 0:
                    break
                start = end + 1
            rest = buffer[start:]
            if len(rest) > limit:
                return False
    return True


def _read_vectorised(path, header, response_column):
    """(table, response index) of a well-formed file from one
    ``np.loadtxt`` pass, or None for any other file.

    The header is split by a strict ``csv.reader`` and the body lines as
    ``csv.reader`` splits unquoted text, so a file read here gives what
    :func:`_read_checked` would give. The file is opened as text once: the
    header line is read from the handle, and ``np.loadtxt`` is handed the
    same handle, at the first body line, and tokenizes the rest in C. A file
    longer than ``csv.field_size_limit()`` bytes is first scanned for a
    line longer than that by :func:`_lines_within`.
    """
    names = None
    limit = csv.field_size_limit()
    try:
        with open(path, encoding="utf-8-sig") as handle:
            if header:
                head = handle.readline()
                if head in ("", "\n"):
                    return None
                # strict: a quoted field left open at the line end is an error
                names = [field.strip() for field in next(csv.reader([head], strict=True))]
            # np.loadtxt skips blank lines but warns when no line is left;
            # a body of blank lines is the loop's error to name. readline,
            # not iteration, so that tell() and seek() still work.
            body = handle.tell()
            if all(line == "\n" for line in iter(handle.readline, "")):
                return None
            if os.fstat(handle.fileno()).st_size > limit and not _lines_within(path, limit):
                return None
            handle.seek(body)
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):  # a UnicodeDecodeError too: the loop then names the file
        return None
    ncols = table.shape[1]
    if ncols < 2 or (header and len(names) != ncols):
        return None
    try:
        index = _resolve_response(response_column, names, ncols, header)
    except CsvParseError:
        return None
    if not np.all((table[:, index] == 0.0) | (table[:, index] == 1.0)):
        return None
    return table, index


def _read_checked(path, header, response_column):
    """(table, response index) parsed field by field in one pass, each row
    converted as ``csv.reader`` yields it, raising the first problem in
    file order with its row and column."""
    names = ncols = index = None
    values, lineno = array("d"), 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                if not row:
                    continue
                if header and names is None:
                    names = [field.strip() for field in row]
                    continue
                if ncols is None:
                    ncols = len(row)
                    if ncols < 2:
                        raise CsvParseError(f"{path}: need a response and at least one predictor column")
                    index = _resolve_response(response_column, names, ncols, header)
                if len(row) != ncols:
                    raise CsvParseError(f"row {lineno}: expected {ncols} fields, got {len(row)}", row=lineno)
                for j, field in enumerate(row, start=1):
                    text = field.strip()
                    if text == "":
                        raise CsvParseError(f"row {lineno}, column {j}: missing value", row=lineno, column=j)
                    try:
                        value = float(text)
                    except ValueError:
                        raise CsvParseError(
                            f"row {lineno}, column {j}: cannot parse {field!r} as a number", row=lineno, column=j
                        ) from None
                    if j == index + 1 and value not in (0.0, 1.0):
                        message = f"row {lineno}: response value {field!r} is not 0 or 1"
                        raise NonBinaryResponseError(message, row=lineno, column=j)
                    values.append(value)
        except csv.Error as err:  # such as a field longer than csv.field_size_limit()
            raise CsvParseError(f"row {lineno + 1}: {err}", row=lineno + 1) from None
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from None
    if ncols is None:
        what = "no" if names is None else "a header but no"
        raise CsvParseError(f"{path}: file contains {what} data rows")
    return np.frombuffer(values).reshape(-1, ncols), index


#: Rows that :func:`save_csv` converts to text at a time.
SAVE_BLOCK_ROWS = 4096


def save_csv(data: Dataset, path):
    """Write a dataset as CSV with a header row and the response first.

    The intercept column, if present, is omitted so that reading the
    file back with the same ``intercept`` flag reproduces the dataset.
    Floats are written with full round-trip precision (``repr``), in the
    bytes ``csv.writer`` would write: no field ever needs quoting, and
    lines end in CRLF. Rows are converted to Python floats
    :data:`SAVE_BLOCK_ROWS` at a time, so the memory used beyond the
    dataset is bounded by one block, whatever the number of rows.
    """
    x = data.X[:, 1:] if data.has_intercept else data.X
    names = ["y"] + [f"x{j + 1}" for j in range(x.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\r\n")
        for start in range(0, data.n, SAVE_BLOCK_ROWS):
            rows = slice(start, start + SAVE_BLOCK_ROWS)
            handle.writelines(
                ",".join([repr(int(yi)), *map(repr, row)]) + "\r\n"
                for yi, row in zip(data.y[rows].tolist(), x[rows].tolist())
            )


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Collinearity diagnostics for the predictor columns.

    ``correlation`` is the Pearson correlation matrix of the
    (non-intercept) predictors. ``kappa`` is its condition number
    sqrt(lambda_max / lambda_min), from the ``eigenvalues`` reported
    (descending); perfect collinearity is reported as the +inf sentinel
    rather than an error.
    """

    correlation: NDArray
    kappa: float
    eigenvalues: NDArray


def diagnostics(data: Dataset) -> DiagnosticsReport:
    """Pairwise correlations and the collinearity condition number.

    ``kappa`` comes from the correlation matrix, which makes it invariant
    to rescaling any predictor.

    Raises
    ------
    ConstantColumnError
        If any non-intercept predictor column is constant.
    """
    cols = data.X[:, 1:] if data.has_intercept else data.X
    if cols.shape[1] < 1:
        raise ValueError("no predictor columns to diagnose")
    if data.n < 2:
        raise ValueError("need at least two rows for correlations")
    spans = np.ptp(cols, axis=0)
    for j, span in enumerate(spans):
        if span == 0.0:
            raise ConstantColumnError(f"predictor column {j + 1} is constant")
    # one predictor gives a 0-d coefficient; atleast_2d is a no-op otherwise
    correlation = symmetrize(np.atleast_2d(np.corrcoef(cols, rowvar=False)))
    np.fill_diagonal(correlation, 1.0)
    evals = np.linalg.eigvalsh(correlation)[::-1].copy()
    kappa = float(np.sqrt(evals[0] / evals[-1])) if positive_definite(evals) else np.inf
    return DiagnosticsReport(correlation=correlation, kappa=kappa, eigenvalues=evals)
