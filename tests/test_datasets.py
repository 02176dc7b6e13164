"""CSV ingestion, serialization round-trips, and collinearity diagnostics."""

import csv
import io
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklogit import (
    ConstantColumnError,
    CsvParseError,
    NonBinaryResponseError,
    bundled_dataset_path,
    diagnostics,
    load_csv,
    save_csv,
)
from shrinklogit import datasets
from shrinklogit.logit import Dataset


def encode(text):
    """UTF-8 bytes of ``text``, where a lone surrogate U+DC80..U+DCFF stands
    for the raw byte 0x80..0xFF, so a table row can hold a non-UTF-8 byte."""
    return text.encode("utf-8", "surrogateescape")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(encode(text))
    return path


def assert_same_array(actual, expected):
    """Same dtype, shape and bits (so -0.0 and 0.0 differ), C order."""
    expected = np.ascontiguousarray(expected, dtype=float)
    assert actual.dtype == np.float64 and actual.flags.c_contiguous
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_read(actual, expected):
    """Two reader results, (table, response index), are the same."""
    assert actual[1] == expected[1]
    assert_same_array(actual[0], expected[0])


#: (text, load_csv keywords, predictors, response) read with intercept=False.
PINNED_LOADS = [
    pytest.param('y,x\n"1","0.5"\n0,"-0.5"\n', {}, [[0.5], [-0.5]], [1, 0], id="quoted-fields"),
    pytest.param('"y","x"\n1,0.5\n0,2\n', {}, [[0.5], [2]], [1, 0], id="quoted-header"),
    pytest.param('"y",y\n1,0\n0,1\n', {"response_column": "y"}, [[0], [1]], [1, 0], id="quoted-header-name"),
    pytest.param(" y , x \n 1 , 0.5 \n0 ,-0.5\n", {"response_column": "y"}, [[0.5], [-0.5]], [1, 0], id="surrounding-spaces"),
    pytest.param("y,x\n\t1\t,\xa00.25\xa0\n0,\t2\n", {}, [[0.25], [2]], [1, 0], id="tabs-and-nbsp"),
    pytest.param("y,#x\n1,0.5\n0,1\n", {}, [[0.5], [1]], [1, 0], id="hash-in-header"),
    pytest.param("y,x\n\n1,0.5\n\n\n0,-0.5\n\n", {}, [[0.5], [-0.5]], [1, 0], id="blank-lines"),
    pytest.param("\n\ny,x\n1,0.5\n0,-0.5\n", {}, [[0.5], [-0.5]], [1, 0], id="blank-lines-before-header"),
    pytest.param("y,x\r\n1,0.5\r\n0,-0.5\r\n", {}, [[0.5], [-0.5]], [1, 0], id="crlf"),
    pytest.param("y,x\r1,0.5\r0,-0.5\r", {}, [[0.5], [-0.5]], [1, 0], id="bare-cr"),
    pytest.param("y,x\n1,0.5\n0,1", {}, [[0.5], [1]], [1, 0], id="no-final-newline"),
    pytest.param("y,x\n1,1_000\n0,2\n", {}, [[1000], [2]], [1, 0], id="underscores"),
    pytest.param("y,x\n1,-0.0\n0,1\n", {}, [[-0.0], [1]], [1, 0], id="negative-zero"),
    pytest.param("y,x\n1,1e-320\n0,1\n", {}, [[1e-320], [1]], [1, 0], id="subnormal"),
    pytest.param("1,0.5\n0,1\n1,2\n", {}, [[1], [2]], [0, 1], id="numeric-header-row"),
    pytest.param("y,x\n-0.0,0.5\n1,1\n", {}, [[0.5], [1]], [-0.0, 1], id="negative-zero-response"),
    pytest.param("a,outcome,b\n0.1,1,2\n0.2,0,3\n", {"response_column": "outcome"}, [[0.1, 2], [0.2, 3]], [1, 0], id="named-response"),
    pytest.param("a,outcome,b\n0.1,1,2\n0.2,0,3\n", {"response_column": 1}, [[0.1, 2], [0.2, 3]], [1, 0], id="indexed-response"),
    pytest.param("x,y\n0.5,1\n-0.5,0\n", {"response_column": -1}, [[0.5], [-0.5]], [1, 0], id="negative-response-index"),
    pytest.param("1,0.5\n0,-0.5\n", {"header": False}, [[0.5], [-0.5]], [1, 0], id="headerless"),
    pytest.param("y,x,z\n1,0.5\n0,1\n", {}, [[0.5], [1]], [1, 0], id="header-wider-than-body"),
]

#: (text, load_csv keywords, error type, message with {path}, row, column).
PINNED_ERRORS = [
    pytest.param('y,x\n1,"0,5"\n', {}, CsvParseError, "row 2, column 2: cannot parse '0,5' as a number", 2, 2, id="quoted-comma"),
    pytest.param("y,x\n1,0.5 # note\n0,1\n", {}, CsvParseError, "row 2, column 2: cannot parse '0.5 # note' as a number", 2, 2, id="hash-in-field"),
    pytest.param("y,x\n1,\n0,1\n", {}, CsvParseError, "row 2, column 2: missing value", 2, 2, id="empty-field"),
    pytest.param("y,x\n1, \t\n0,1\n", {}, CsvParseError, "row 2, column 2: missing value", 2, 2, id="blank-field"),
    pytest.param("y,x\n1,0.5\n0,1.0,7.0\n", {}, CsvParseError, "row 3: expected 2 fields, got 3", 3, None, id="ragged-row"),
    pytest.param("y,x\n1,0.5\n  \n0,1\n", {}, CsvParseError, "row 3: expected 2 fields, got 1", 3, None, id="whitespace-only-line"),
    pytest.param("\ny,x\n\n1,oops\n", {}, CsvParseError, "row 4, column 2: cannot parse 'oops' as a number", 4, 2, id="rows-count-blank-lines"),
    pytest.param("y,x\r\n1,0.5\r\n0,x\r\n", {}, CsvParseError, "row 3, column 2: cannot parse 'x' as a number", 3, 2, id="crlf-error"),
    pytest.param("y,x\n1,nan\n0,1\n", {}, ValueError, "X has non-finite entries", None, None, id="nan-predictor"),
    pytest.param("y,x\n1,inf\n0,1\n", {}, ValueError, "X has non-finite entries", None, None, id="inf-predictor"),
    pytest.param("y,x\n1,-Infinity\n0,1\n", {}, ValueError, "X has non-finite entries", None, None, id="minus-infinity-predictor"),
    pytest.param("y,x\nnan,0.5\n0,1\n", {}, NonBinaryResponseError, "row 2: response value 'nan' is not 0 or 1", 2, 1, id="nan-response"),
    pytest.param("y,x\n1,0.5\n 2 ,1\n", {}, NonBinaryResponseError, "row 3: response value ' 2 ' is not 0 or 1", 3, 1, id="response-two"),
    pytest.param("y,x\n2,oops\n", {}, NonBinaryResponseError, "row 2: response value '2' is not 0 or 1", 2, 1, id="response-before-later-field"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": 2}, CsvParseError, "response column index 2 out of range for 2 columns", None, None, id="index-out-of-range"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": -3}, CsvParseError, "response column index -3 out of range for 2 columns", None, None, id="negative-index-out-of-range"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": 1.7}, ValueError, "response_column must be an integer or a column name, got 1.7", None, None, id="float-index"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": float("nan")}, ValueError, "response_column must be an integer or a column name, got nan", None, None, id="nan-index"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": True}, ValueError, "response_column must be an integer or a column name, got True", None, None, id="true-index"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": False}, ValueError, "response_column must be an integer or a column name, got False", None, None, id="false-index"),
    pytest.param("y,x\n1,0.5\n0,1\n", {"response_column": "outcome"}, CsvParseError, "response column 'outcome' not found in header ['y', 'x']", None, None, id="name-not-in-header"),
    pytest.param("1,0.5\n0,1\n", {"header": False, "response_column": "y"}, CsvParseError, "response column 'y' named but the file has no header", None, None, id="name-without-header"),
    pytest.param("", {}, CsvParseError, "{path}: file contains no data rows", None, None, id="empty-file"),
    pytest.param("\n\r\n\n", {}, CsvParseError, "{path}: file contains no data rows", None, None, id="blank-file"),
    pytest.param("y,x\n\n", {}, CsvParseError, "{path}: file contains a header but no data rows", None, None, id="header-only"),
    pytest.param("y\n1\n0\n", {}, CsvParseError, "{path}: need a response and at least one predictor column", None, None, id="single-column"),
    pytest.param("y,x,z\n1,0.5\n0,1\n", {"response_column": "z"}, CsvParseError, "response column index 2 out of range for 2 columns", None, None, id="named-response-beyond-body"),
    pytest.param("y,x\n1," + "5" * 131075 + "\n0,1\n", {}, CsvParseError, "row 2: field larger than field limit (131072)", 2, None, id="field-over-size-limit"),
    pytest.param("y,x\n1,0.5\n0,\udcff\n", {}, CsvParseError, "{path}: not UTF-8 text (invalid start byte)", None, None, id="non-utf8-byte"),
    pytest.param("y,caf\udce9\n1,0.5\n0,1\n", {}, CsvParseError, "{path}: not UTF-8 text (invalid continuation byte)", None, None, id="latin-1-header"),
]


class TestLoadCsvSemantics:
    """What load_csv reads or refuses, value for value and error for error."""

    @pytest.mark.parametrize("text, kwargs, x, y", PINNED_LOADS)
    def test_reads(self, tmp_path, text, kwargs, x, y):
        data = load_csv(write(tmp_path, text), intercept=False, **kwargs)
        assert_same_array(data.X, x)
        assert_same_array(data.y, y)

    @pytest.mark.parametrize("text, kwargs, error, message, row, column", PINNED_ERRORS)
    def test_refuses(self, tmp_path, text, kwargs, error, message, row, column):
        path = write(tmp_path, text)
        with pytest.raises(error) as excinfo:
            load_csv(path, **kwargs)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message.format(path=path)
        assert getattr(excinfo.value, "row", None) == row
        assert getattr(excinfo.value, "column", None) == column

    @pytest.mark.parametrize(
        "text, kwargs",
        [
            pytest.param("y,x\n1,0.5\n0,-0.5\n", {"response_column": "y"}, id="header"),
            pytest.param("1,0.5\n0,-0.5\n", {"header": False}, id="headerless"),
            pytest.param('"y",x\n1,"0.5"\n0,-0.5\n', {"response_column": "y"}, id="quoted-fields"),
        ],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text, kwargs):
        plain = load_csv(write(tmp_path, text, "plain.csv"), **kwargs)
        marked = load_csv(write(tmp_path, "\ufeff" + text, "bom.csv"), **kwargs)
        assert_same_array(marked.X, plain.X)
        assert_same_array(marked.y, plain.y)

    def test_intercept_is_stacked_first(self, tmp_path):
        data = load_csv(write(tmp_path, "x,y\n0.5,1\n-0.5,0\n"), response_column="y")
        assert_same_array(data.X, [[1.0, 0.5], [1.0, -0.5]])
        assert_same_array(data.y, [1.0, 0.0])


#: Fields for random CSV text, from well-formed numbers to what only the
#: field-by-field loop reads or refuses.
FIELDS = ["0", "1", "-0.0", "0.5", "-1.5e3", "1e-320", "1e400", "nan", "inf", "1_000", "", " ", " 1 ",
          "\xa01", "\t0", '"1"', '"y"', '"0,5"', "#", "1#", "x", "y", "2", "\u0661"]


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = draw(
        st.lists(
            st.one_of(
                st.lists(st.sampled_from(["0", "1", "0.25", "-3.5"]), min_size=width, max_size=width),
                st.lists(st.sampled_from(FIELDS), min_size=0, max_size=width + 1),
            ),
            max_size=6,
        )
    )
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(",".join(fields) + end for fields, end in zip(lines, ends))


class TestVectorisedPass:
    """The one-pass reader either reads what the loop reads or steps aside."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts(), st.booleans(), st.sampled_from([0, 1, -1, 3, "y", "x1"]))
    def test_agrees_with_the_loop(self, tmp_path, text, header, response_column):
        path = write(tmp_path, text)
        fast = datasets._read_vectorised(path, header, response_column)
        try:
            expected = datasets._read_checked(path, header, response_column)
        except CsvParseError:
            assert fast is None
            return
        if fast is not None:
            assert_same_read(fast, expected)

    @pytest.mark.parametrize(
        "text, response_column",
        [
            pytest.param("y,x\n1,oops\n0,1\n", 0, id="parse-error"),
            pytest.param("\ny,x\n1,0.5\n0,1\n", 0, id="blank-first-line"),
            pytest.param('"y\nz",x\n1,0.5\n0,1\n', 0, id="quoted-header-over-two-lines"),
            pytest.param('"y"z,x\n1,0.5\n0,1\n', 0, id="text-after-a-closing-quote"),
            pytest.param('y,x\n"1",0.5\n0,1\n', 0, id="quoted-body-field"),
            pytest.param("y,x,z\n1,0.5\n0,1\n", 0, id="header-wider-than-body"),
            pytest.param("y,x\n1,0.5\n2,1\n", 0, id="non-binary-response"),
            pytest.param("y,x\n1,0.5\n0,1\n", "outcome", id="unknown-response-name"),
            pytest.param("y,x\n1,0.5\n0,1\n", 2, id="response-index-out-of-range"),
            pytest.param("y,x\n1,0." + "0" * csv.field_size_limit() + "\n0,1\n", 0, id="field-over-csv-limit"),
        ],
    )
    def test_steps_aside(self, tmp_path, text, response_column):
        assert datasets._read_vectorised(write(tmp_path, text), True, response_column) is None

    def test_written_files_never_reach_the_loop(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the field-by-field loop ran")

        scans = []
        scan = datasets._lines_within
        monkeypatch.setattr(datasets, "_read_checked", refuse)
        monkeypatch.setattr(datasets, "_lines_within", lambda *args: scans.append(args) or scan(*args))
        bundled = load_csv(bundled_dataset_path())
        path = tmp_path / "copy.csv"
        save_csv(bundled, path)
        back = load_csv(path)
        assert_same_array(back.X, bundled.X)
        assert_same_array(back.y, bundled.y)
        assert scans == []  # no file here is longer than the limit

        large = random_dataset(2000, 7)  # about 300 kB, so the byte scan runs
        save_csv(large, path)
        assert path.stat().st_size > csv.field_size_limit()
        back = load_csv(path, intercept=False)
        assert len(scans) == 1
        assert_same_array(back.X, large.X)
        assert_same_array(back.y, large.y)

    def test_a_relative_name_that_looks_like_a_url_is_read_as_a_file(self, tmp_path, monkeypatch):
        # np.loadtxt opens a name with a scheme and a host as a URL
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        write(tmp_path / "http:" / "localhost", "y,x\n1,0.5\n0,-0.5\n", "a.csv")
        monkeypatch.chdir(tmp_path)
        fast = datasets._read_vectorised("http://localhost/a.csv", True, 0)
        assert fast is not None
        assert_same_array(fast[0], [[1, 0.5], [0, -0.5]])


def random_dataset(n, width, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, width)), (rng.random(n) < 0.5).astype(float))


def traced_peak(call):
    """``call()`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingRead:
    """The vectorised pass reads the file in chunks, with the loop's
    outcome on every file, however far into it a problem lies."""

    @pytest.mark.parametrize(
        "text, header",
        [
            pytest.param("y,x\n\n\n1,0.5\n\n0,-0.5\n\n", True, id="blank-lines-before-and-between-rows"),
            pytest.param("\n\n1,0.5\n\n\n0,-0.5\n", False, id="blank-lines-before-headerless-rows"),
            pytest.param("\ufeffy,x\r\n1,0.5\r\n0,-0.5\r\n", True, id="bom-and-crlf"),
            pytest.param("\ufeff1,0.5\r\n\r\n0,-0.5\r\n", False, id="bom-and-crlf-headerless"),
            pytest.param('"y",x\n1,0.5\n0,-0.5\n', True, id="quoted-first-line"),
            pytest.param('\ufeff"y","x, a ""note"""\r\n1,0.5\r\n0,-0.5\r\n', True, id="quoted-header-with-comma-and-quotes"),
        ],
    )
    def test_reads_what_the_loop_reads(self, tmp_path, text, header):
        path = write(tmp_path, text)
        fast = datasets._read_vectorised(path, header, 0)
        assert fast is not None
        assert_same_read(fast, datasets._read_checked(path, header, 0))
        assert_same_array(fast[0], [[1, 0.5], [0, -0.5]])

    @pytest.mark.parametrize("header", [True, False])
    def test_a_body_of_blank_lines_steps_aside(self, tmp_path, header):
        # np.loadtxt would warn "input contained no data", an error in this suite
        path = write(tmp_path, "y,x\n\n\r\n\n" if header else "\n\r\n\n")
        assert datasets._read_vectorised(path, header, 0) is None
        message = "file contains a header but no data rows" if header else "file contains no data rows"
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path, header=header)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_a_late_non_utf8_byte_names_the_file(self, tmp_path):
        rows = "1,0.5\n0,-0.5\n" * 6000  # 78,000 bytes, past the decoder's first chunks
        path = write(tmp_path, "y,x\n" + rows + "1,\udcff\n")
        assert path.stat().st_size > 65536
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_a_late_non_utf8_byte_after_the_pass_stepped_aside(self, tmp_path):
        # the quoted field sends the file to the loop, which meets the byte
        path = write(tmp_path, 'y,x\n"1",0.5\n' + "1,0.5\n0,-0.5\n" * 5000 + "1,\udcff\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text (invalid start byte)"

    def test_an_over_limit_line_after_good_rows(self, tmp_path):
        long_field = "5" * (csv.field_size_limit() + 3)
        path = write(tmp_path, "y,x\n" + "1,0.5\n" * 10000 + "0," + long_field + "\n1,1\n")
        assert datasets._read_vectorised(path, True, 0) is None
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        limit = csv.field_size_limit()
        assert str(excinfo.value) == f"row 10002: field larger than field limit ({limit})"
        assert excinfo.value.row == 10002

    @pytest.mark.parametrize(
        "quote, bound",
        [
            pytest.param(lambda line, i: line, 1.5, id="plain"),
            pytest.param(lambda line, i: line if i else line.replace("y", '"y"'), 1.5, id="quoted-header"),
            pytest.param(lambda line, i: '"' + line.replace(",", '","') + '"', 3, id="quoted-body-fields"),
        ],
    )
    def test_peak_memory_is_a_small_multiple_of_the_array(self, tmp_path, quote, bound):
        path = tmp_path / "wide.csv"
        save_csv(random_dataset(20000, 7), path)  # 8 columns with the response
        lines = path.read_text().splitlines()
        path.write_text("\n".join(quote(line, i) for i, line in enumerate(lines)) + "\n")
        loaded, peak = traced_peak(lambda: load_csv(path))
        assert peak < bound * loaded.X.nbytes

    @pytest.mark.parametrize(
        "later",
        [
            pytest.param("0," + "5" * (csv.field_size_limit() + 3) + "\n", id="over-limit-field"),
            pytest.param("0,\udcff\n", id="non-utf8-byte"),
        ],
    )
    def test_the_first_problem_in_file_order_is_reported(self, tmp_path, later):
        # 78,000 bytes of good rows keep the later problem past the decoder's
        # first chunks, so only the order of the loop's checks decides
        path = write(tmp_path, "y,x\n1,oops\n" + "1,0.5\n0,-0.5\n" * 3000 + later)
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == "row 2, column 2: cannot parse 'oops' as a number"
        assert (excinfo.value.row, excinfo.value.column) == (2, 2)


#: A field-size limit small enough that a line of it fits many times into
#: one chunk of the byte scan.
SMALL_LIMIT = 1000


@pytest.fixture
def small_field_limit():
    """``csv.field_size_limit()`` lowered to SMALL_LIMIT for the test."""
    old = csv.field_size_limit(SMALL_LIMIT)
    yield SMALL_LIMIT
    csv.field_size_limit(old)


def around_the_boundary(line, end, shift, bom):
    """A headed file whose ``line`` starts ``shift`` bytes from the end of the
    byte scan's first chunk, between short rows, every line ended by ``end``."""
    head = ("\ufeff" if bom else "") + "y,x" + end
    row = "1,0.5" + end
    start = datasets.SCAN_CHUNK_BYTES - shift
    rows, pad = divmod(start - len(encode(head)), len(row))
    before = head + "1,0.5" + "0" * pad + end + row * (rows - 1)
    assert len(encode(before)) == start
    return before + line + end + "0,1.5" + end


def longest_line(data):
    return max(map(len, re.split(rb"\r\n|\r|\n", data)))


class TestByteScan:
    """The field-size rule, checked on the bytes: a line of exactly the limit
    is read by the vectorised pass, one byte more sends the file to the loop,
    wherever the line falls against the scan's chunks."""

    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "shift",
        [SMALL_LIMIT // 2, SMALL_LIMIT, SMALL_LIMIT + 1, SMALL_LIMIT + 2, 1],
        ids=["straddles", "ends-at-the-boundary", "end-is-last-byte", "end-two-before", "one-byte-left"],
    )
    @pytest.mark.parametrize("extra", [0, 1], ids=["limit", "limit+1"])
    def test_a_line_at_the_limit_and_one_over(self, tmp_path, small_field_limit, bom, end, shift, extra):
        line = "1,0." + "5" * (small_field_limit - 4 + extra)
        assert len(line) == small_field_limit + extra
        path = write(tmp_path, around_the_boundary(line, end, shift, bom))
        assert longest_line(path.read_bytes()) == small_field_limit + extra
        assert datasets._lines_within(path, small_field_limit) is (extra == 0)
        fast = datasets._read_vectorised(path, True, 0)
        expected = datasets._read_checked(path, True, 0)
        assert (fast is None) is (extra == 1)
        if fast is not None:
            assert_same_read(fast, expected)
        data = load_csv(path, intercept=False)
        assert_same_array(data.X, expected[0][:, 1:])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("shift", [SMALL_LIMIT // 2, SMALL_LIMIT + 1], ids=["straddles", "end-is-last-byte"])
    def test_a_field_over_the_limit_is_the_loop_error(self, tmp_path, small_field_limit, end, shift):
        path = write(tmp_path, around_the_boundary("1,0." + "5" * (small_field_limit - 1), end, shift, True))
        with pytest.raises(CsvParseError) as caught:
            datasets._read_checked(path, True, 0)
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == str(caught.value)
        assert str(excinfo.value).endswith(f"field larger than field limit ({small_field_limit})")
        assert excinfo.value.row == caught.value.row

    def test_many_long_lines_in_one_chunk(self, tmp_path, small_field_limit):
        lines = ["1,0." + "5" * (small_field_limit - 4 - k % 3) for k in range(200)]
        path = write(tmp_path, "y,x\n" + "\n".join(lines) + "\n")
        assert datasets._lines_within(path, small_field_limit)
        path = write(tmp_path, "y,x\n" + "\n".join(lines[:150] + [lines[0] + "5"] + lines[150:]) + "\n")
        assert not datasets._lines_within(path, small_field_limit)

    @pytest.mark.parametrize("text", ["1,0.5", "1,0.5\n", "", "\r\n"], ids=["no-end", "lf", "empty", "crlf"])
    def test_short_files(self, tmp_path, text):
        assert datasets._lines_within(write(tmp_path, text), 5)
        assert not datasets._lines_within(write(tmp_path, text + "0,1.25"), 5)

    def test_a_file_no_longer_than_the_limit_is_not_scanned(self, tmp_path, small_field_limit, monkeypatch):
        def refuse(*args):
            raise AssertionError("the byte scan ran")

        monkeypatch.setattr(datasets, "_lines_within", refuse)
        path = write(tmp_path, "y,x\n" + "1,0.5\n" * 166)
        assert path.stat().st_size == 1000
        assert datasets._read_vectorised(path, True, 0) is not None


def read_through_fifo(tmp_path, text, **kwargs):
    """load_csv of a FIFO that another thread fills with ``text``: (the
    dataset or the error raised, the FIFO's path). Fails, rather than hangs,
    if the read does not end."""
    path = tmp_path / "stream.csv"
    os.mkfifo(path)
    outcome = []

    def feed():
        with open(path, "wb") as out:
            out.write(encode(text))

    def read():
        try:
            outcome.append(load_csv(path, **kwargs))
        except Exception as err:  # handed to the test thread
            outcome.append(err)

    threads = [threading.Thread(target=feed, daemon=True), threading.Thread(target=read, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    if any(thread.is_alive() for thread in threads):
        os.close(os.open(path, os.O_RDWR | os.O_NONBLOCK))  # lets a blocked open return
        pytest.fail("load_csv of a FIFO did not end: it opened the FIFO more than once")
    return outcome[0], path


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestStreams:
    """A stream is read once, by the field loop."""

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("y,x\n1,0.5\n0,1\n1,2\n", id="well-formed"),
            pytest.param('y,x\n"1",0.5\n0,1\n1,2\n', id="quoted"),
            pytest.param("y,x\r\n" + "1,0.5\r\n0,-0.25\r\n" * 20000, id="larger-than-the-field-limit"),
        ],
    )
    def test_a_fifo_gives_the_regular_files_table(self, tmp_path, text):
        data, _ = read_through_fifo(tmp_path, text)
        plain = load_csv(write(tmp_path, text, "plain.csv"))
        assert_same_array(data.X, plain.X)
        assert_same_array(data.y, plain.y)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("y,x\n\n", "{path}: file contains a header but no data rows", id="header-only"),
            pytest.param("y,x\n1,0.5\n0,\udcff\n", "{path}: not UTF-8 text (invalid start byte)", id="non-utf8-byte"),
        ],
    )
    def test_a_message_names_the_fifo(self, tmp_path, text, message):
        error, path = read_through_fifo(tmp_path, text)
        assert type(error) is CsvParseError
        assert str(error) == message.format(path=path)

    def test_a_fifo_is_read_without_a_temporary_file(self, tmp_path, monkeypatch):
        folder = tmp_path / "tmp"
        folder.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(folder))

        def refuse(*args, **kwargs):
            raise AssertionError("load_csv made a temporary file")

        for name in ("TemporaryDirectory", "NamedTemporaryFile", "TemporaryFile", "mkdtemp", "mkstemp"):
            monkeypatch.setattr(tempfile, name, refuse)
        text = "y,x\n1,0.5\n0,1\n1,2\n"
        data, _ = read_through_fifo(tmp_path, text)
        plain = load_csv(write(tmp_path, text, "plain.csv"))
        assert_same_array(data.X, plain.X)
        assert_same_array(data.y, plain.y)
        assert list(folder.iterdir()) == []


class TestCompressedNames:
    """np.loadtxt decompresses a file named *.gz, *.bz2, *.xz or *.lzma; the
    vectorised pass steps aside for such a name, and the loop reads the
    file as the text it is."""

    @pytest.mark.parametrize("name", ["data.csv.gz", "data.bz2", "data.xz", "data.csv.lzma"])
    def test_a_plain_text_file_loads_as_text(self, tmp_path, name):
        text = 'y,x\n1,0.5\n0,-0.5\n'
        path = write(tmp_path, text, name)
        assert datasets._read_vectorised(path, True, 0) is None
        data = load_csv(path)
        plain = load_csv(write(tmp_path, text))
        assert_same_array(data.X, plain.X)
        assert_same_array(data.y, plain.y)


def reference_split(table, index, intercept):
    """(X, y) by the reference route: the response deleted, then the ones
    column stacked in front."""
    x = np.delete(table, index, axis=1)
    if intercept:
        x = np.column_stack([np.ones(len(table)), x])
    return x, table[:, index].copy()


class TestSplit:
    """load_csv writes X into the parsed table, bit for bit as the reference."""

    @pytest.mark.parametrize("loop", [False, True], ids=["vectorised", "loop"])
    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("index", [0, 1, 2, 3, -1, -4])
    def test_matches_delete_then_stack(self, tmp_path, monkeypatch, loop, intercept, index):
        rng = np.random.default_rng(index + 4)
        table = rng.standard_normal((12, 4))
        table[3, :] = [-0.0, 5e-324, -1e300, 0.0]
        table[:, index] = rng.random(12) < 0.5
        table[5, index] = -0.0
        path = tmp_path / "table.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
        if loop:
            monkeypatch.setattr(datasets, "_read_vectorised", lambda *args: None)
        data = load_csv(path, header=False, response_column=index, intercept=intercept)
        x, y = reference_split(table, index, intercept)
        assert_same_array(data.X, x)
        assert_same_array(data.y, y)


class TestBlockedSave:
    """save_csv converts a block of rows at a time: same bytes, bounded memory."""

    @pytest.mark.parametrize("n", [datasets.SAVE_BLOCK_ROWS, 2 * datasets.SAVE_BLOCK_ROWS + 3])
    def test_blocks_write_the_bytes_of_one_pass(self, tmp_path, n):
        data = random_dataset(n, 3, seed=n)
        path = tmp_path / "out.csv"
        save_csv(data, path)
        assert path.read_bytes() == csv_writer_reference(data)

    def test_peak_memory_does_not_grow_with_the_rows(self, tmp_path):
        n = 2 * datasets.SAVE_BLOCK_ROWS
        small, large = random_dataset(n, 7), random_dataset(4 * n, 7)
        _, small_peak = traced_peak(lambda: save_csv(small, tmp_path / "small.csv"))
        _, large_peak = traced_peak(lambda: save_csv(large, tmp_path / "large.csv"))
        assert large_peak < 1.5 * small_peak


class TestLoadCsv:
    def test_two_row_file_with_intercept(self, tmp_path):
        path = write(tmp_path, "y,x\n1,0.5\n0,-0.5\n")
        data = load_csv(path)
        np.testing.assert_allclose(data.X, [[1.0, 0.5], [1.0, -0.5]])
        np.testing.assert_allclose(data.y, [1.0, 0.0])
        assert data.has_intercept

    def test_without_intercept_and_named_response(self, tmp_path):
        path = write(tmp_path, "a,outcome,b\n0.1,1,2.0\n0.2,0,3.0\n-0.1,1,4.0\n")
        data = load_csv(path, response_column="outcome", intercept=False)
        assert not data.has_intercept
        np.testing.assert_allclose(data.y, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(data.X[:, 0], [0.1, 0.2, -0.1])
        np.testing.assert_allclose(data.X[:, 1], [2.0, 3.0, 4.0])

    def test_headerless_with_index(self, tmp_path):
        path = write(tmp_path, "1,0.5\n0,-0.5\n", name="raw.csv")
        data = load_csv(path, header=False)
        np.testing.assert_allclose(data.y, [1.0, 0.0])

    def test_non_binary_response(self, tmp_path):
        path = write(tmp_path, "y,x\n2,0.5\n0,1.0\n")
        with pytest.raises(NonBinaryResponseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 2

    def test_unparseable_field_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "y,x\n1,0.5\n0,oops\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 3
        assert excinfo.value.column == 2

    def test_missing_value_is_an_error(self, tmp_path):
        path = write(tmp_path, "y,x,z\n1,0.5,\n0,1.0,2.0\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 2

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "y,x\n1,0.5\n0,1.0,7.0\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 3

    def test_named_response_without_header(self, tmp_path):
        path = write(tmp_path, "1,0.5\n0,1.0\n")
        with pytest.raises(CsvParseError):
            load_csv(path, header=False, response_column="y")

    def test_missing_named_response(self, tmp_path):
        path = write(tmp_path, "y,x\n1,0.5\n0,1.0\n")
        with pytest.raises(CsvParseError):
            load_csv(path, response_column="outcome")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(CsvParseError):
            load_csv(path)

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = (rng.random(20) < 0.5).astype(float)
        data = Dataset(x, y, has_intercept=False)
        path = tmp_path / "round.csv"
        save_csv(data, path)
        back = load_csv(path, intercept=False)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        # and once more through the writer
        again = tmp_path / "again.csv"
        save_csv(back, again)
        assert again.read_text() == path.read_text()

    def test_round_trip_with_intercept(self, tmp_path):
        path = write(tmp_path, "y,x\n1,0.5\n0,-0.5\n1,0.25\n")
        data = load_csv(path)
        out = tmp_path / "out.csv"
        save_csv(data, out)
        back = load_csv(out)
        assert np.array_equal(back.X, data.X)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_round_trip_is_exact_on_any_finite_float(self, tmp_path, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(m, 8))
        values = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
        )
        x = np.array(data.draw(st.lists(values, min_size=n * m, max_size=n * m))).reshape(n, m)
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        path = tmp_path / "round.csv"
        save_csv(Dataset(x, y), path)
        back = load_csv(path, intercept=False)
        assert_same_array(back.X, x)
        assert_same_array(back.y, y)


def csv_writer_reference(data):
    """The bytes csv.writer writes for a dataset, response first."""
    x = data.X[:, 1:] if data.has_intercept else data.X
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["y"] + [f"x{j + 1}" for j in range(x.shape[1])])
    for yi, row in zip(data.y, x):
        writer.writerow([repr(int(yi))] + [repr(float(v)) for v in row])
    return out.getvalue().encode("utf-8")


class TestSaveCsv:
    @pytest.mark.parametrize("has_intercept", [False, True])
    def test_bytes_match_csv_writer(self, tmp_path, has_intercept):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 3)) * 10.0 ** rng.integers(-300, 300, size=(12, 3))
        x[0, :] = [-0.0, 5e-324, 1e308]
        if has_intercept:
            x[:, 0] = 1.0
        data = Dataset(x, (rng.random(12) < 0.5).astype(float), has_intercept=has_intercept)
        path = tmp_path / "out.csv"
        save_csv(data, path)
        assert path.read_bytes() == csv_writer_reference(data)

    def test_intercept_only_dataset(self, tmp_path):
        data = Dataset(np.ones((2, 1)), np.array([1.0, 0.0]), has_intercept=True)
        path = tmp_path / "out.csv"
        save_csv(data, path)
        assert path.read_bytes() == csv_writer_reference(data) == b"y\r\n1\r\n0\r\n"


class TestDiagnostics:
    def test_duplicate_columns_give_infinite_kappa(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(30)
        data = Dataset(np.column_stack([col, col]), (rng.random(30) < 0.5).astype(float))
        report = diagnostics(data)
        assert report.correlation[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.isinf(report.kappa)

    def test_orthogonal_centered_columns(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((200, 4))
        a = a - a.mean(axis=0)
        q, _ = np.linalg.qr(a)
        data = Dataset(q, (rng.random(200) < 0.5).astype(float))
        report = diagnostics(data)
        np.testing.assert_allclose(report.correlation, np.eye(4), atol=1e-10)
        assert report.kappa == pytest.approx(1.0, abs=1e-8)

    def test_single_predictor(self):
        # np.corrcoef gives a 0-d coefficient for one column
        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(30), rng.standard_normal(30)])
        report = diagnostics(Dataset(x, (rng.random(30) < 0.5).astype(float), has_intercept=True))
        assert report.correlation.tolist() == [[1.0]]
        assert report.eigenvalues.tolist() == [1.0]
        assert report.kappa == 1.0

    def test_intercept_column_is_excluded(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        data = Dataset(x, (rng.random(40) < 0.5).astype(float), has_intercept=True)
        report = diagnostics(data)
        assert report.correlation.shape == (2, 2)

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(Dataset(np.ones((3, 1)), np.array([0.0, 1.0, 0.0]), has_intercept=True),
                         "no predictor columns to diagnose", id="intercept-only"),
            pytest.param(Dataset(np.array([[0.5]]), np.array([1.0])), "need at least two rows for correlations",
                         id="one-row"),
        ],
    )
    def test_what_has_no_correlations_is_refused(self, data, message):
        with pytest.raises(ValueError) as caught:
            diagnostics(data)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message

    def test_constant_column(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.standard_normal(30), np.full(30, 2.0)])
        data = Dataset(x, (rng.random(30) < 0.5).astype(float))
        with pytest.raises(ConstantColumnError):
            diagnostics(data)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        y = (rng.random(60) < 0.5).astype(float)
        scaled = x.copy()
        scaled[:, 1] = 7.5 * scaled[:, 1] - 3.0
        a = diagnostics(Dataset(x, y))
        b = diagnostics(Dataset(scaled, y))
        np.testing.assert_allclose(a.correlation, b.correlation, atol=1e-10)


class TestBundledDataset:
    def test_loads_with_expected_shape(self):
        data = load_csv(bundled_dataset_path(), intercept=False)
        assert data.n == 83
        assert data.m == 4
        assert set(np.unique(data.y)) == {0.0, 1.0}

    def test_severe_multicollinearity_by_construction(self):
        data = load_csv(bundled_dataset_path(), intercept=False)
        report = diagnostics(data)
        off = report.correlation[~np.eye(4, dtype=bool)]
        assert off.min() >= 0.95
        assert off.max() <= 0.995
        assert report.kappa > 30.0

    def test_matches_generator_output(self):
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parents[1] / "demos" / "make_synthetic_dataset.py"
        spec = importlib.util.spec_from_file_location("make_synthetic_dataset", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        regenerated = module.generate()
        bundled = load_csv(bundled_dataset_path(), intercept=False)
        np.testing.assert_allclose(regenerated.X, bundled.X, atol=1e-15)
        assert np.array_equal(regenerated.y, bundled.y)
