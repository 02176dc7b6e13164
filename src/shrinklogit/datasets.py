"""CSV ingestion, serialization, and multicollinearity diagnostics.

The input format is RFC-4180-style comma separated text, UTF-8 (a
leading byte-order mark, as Excel writes, is skipped), with a '.'
decimal separator and an optional header row. Missing values are a
hard error; every parse failure is reported with its 1-based row (and
column) number.

A well-formed file (unquoted numbers of one width, a header line that is
neither blank nor quoted, responses in {0, 1}) is read in one vectorised
``np.loadtxt`` pass. Every other file, and so every error, goes through
a field-by-field ``csv.reader`` loop, which reads the same values.

``importlib.resources`` is imported in :func:`bundled_dataset_path`, the
one function that uses it, so that loading the package does not load it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import ConstantColumnError, CsvParseError, NonBinaryResponseError
from .linalg import positive_definite, symmetrize
from .logit import Dataset

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
        idx = int(response_column)
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

    A well-formed file is read in one vectorised pass: every line after
    the header is unquoted numbers of one width, the header line is
    neither blank nor quoted and as wide as the body, and every response
    is 0 or 1. Any other file goes through the field-by-field loop, which
    is the one source of the errors below and reads the same values.

    Raises
    ------
    CsvParseError
        For ragged rows, empty fields, non-numeric fields, or a field
        longer than ``csv.field_size_limit()``, with the offending 1-based
        row (and column); or for a response column outside the data rows.
    NonBinaryResponseError
        If a response value parses to something other than 0 or 1.
    """
    columns = _read_vectorised(path, header, response_column)
    if columns is None:
        columns = _read_checked(path, header, response_column)
    x, y = columns
    if intercept:
        x = np.column_stack([np.ones(len(y)), x])
    return Dataset(X=x, y=y, has_intercept=intercept)


def _read_vectorised(path, header, response_column):
    """(predictors, response) of a well-formed file from one ``np.loadtxt``
    pass, or None for any file it cannot vouch for.

    Lines are split as ``csv.reader`` splits unquoted text, so a file
    read here gives the arrays :func:`_read_checked` would give.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None  # csv.reader refuses such a field
    names = None
    if header:
        first = lines.pop(0)
        if not first or '"' in first:
            return None
        names = [field.strip() for field in first.split(",")]
    if not any(lines):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # The text lines (about 14 MB at n=50,000) are freed here rather than on
    # return, before a fit that follows imports scipy.special into the heap.
    del lines
    ncols = table.shape[1]
    if ncols < 2 or (header and len(names) != ncols):
        return None
    try:
        response_index = _resolve_response(response_column, names, ncols, header)
    except CsvParseError:
        return None
    y = table[:, response_index].copy()
    if not np.all((y == 0.0) | (y == 1.0)):
        return None
    return np.delete(table, response_index, axis=1), y


def _read_checked(path, header, response_column):
    """(predictors, response) parsed field by field, raising the first
    problem found with its row and column."""
    raw, lineno = [], 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                if row:
                    raw.append((lineno, row))
        except csv.Error as err:  # such as a field longer than csv.field_size_limit()
            raise CsvParseError(f"row {lineno + 1}: {err}", row=lineno + 1) from None
    if not raw:
        raise CsvParseError(f"{path}: file contains no data rows")
    names = None
    if header:
        names = [field.strip() for field in raw[0][1]]
        raw = raw[1:]
        if not raw:
            raise CsvParseError(f"{path}: file contains a header but no data rows")
    ncols = len(raw[0][1])
    if ncols < 2:
        raise CsvParseError(f"{path}: need a response and at least one predictor column")
    response_index = _resolve_response(response_column, names, ncols, header)

    y = np.empty(len(raw))
    x = np.empty((len(raw), ncols - 1))
    for i, (lineno, row) in enumerate(raw):
        if len(row) != ncols:
            raise CsvParseError(
                f"row {lineno}: expected {ncols} fields, got {len(row)}", row=lineno
            )
        k = 0
        for j, field in enumerate(row):
            text = field.strip()
            if text == "":
                raise CsvParseError(
                    f"row {lineno}, column {j + 1}: missing value", row=lineno, column=j + 1
                )
            try:
                value = float(text)
            except ValueError:
                raise CsvParseError(
                    f"row {lineno}, column {j + 1}: cannot parse {field!r} as a number",
                    row=lineno,
                    column=j + 1,
                ) from None
            if j == response_index:
                if value not in (0.0, 1.0):
                    raise NonBinaryResponseError(
                        f"row {lineno}: response value {field!r} is not 0 or 1",
                        row=lineno,
                        column=j + 1,
                    )
                y[i] = value
            else:
                x[i, k] = value
                k += 1
    return x, y


def save_csv(data: Dataset, path):
    """Write a dataset as CSV with a header row and the response first.

    The intercept column, if present, is omitted so that reading the
    file back with the same ``intercept`` flag reproduces the dataset.
    Floats are written with full round-trip precision (``repr``), in the
    bytes ``csv.writer`` would write: no field ever needs quoting, and
    lines end in CRLF.
    """
    x = data.X[:, 1:] if data.has_intercept else data.X
    names = ["y"] + [f"x{j + 1}" for j in range(x.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(names) + "\r\n")
        handle.writelines(
            ",".join([repr(int(yi)), *map(repr, row)]) + "\r\n"
            for yi, row in zip(data.y.tolist(), x.tolist())
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
    correlation = symmetrize(np.corrcoef(cols, rowvar=False))
    np.fill_diagonal(correlation, 1.0)
    evals = np.linalg.eigvalsh(correlation)[::-1].copy()
    kappa = float(np.sqrt(evals[0] / evals[-1])) if positive_definite(evals) else np.inf
    return DiagnosticsReport(correlation=correlation, kappa=kappa, eigenvalues=evals)
