"""CSV ingestion, serialization round-trips, and collinearity diagnostics."""

import numpy as np
import pytest

from shrinklogit import (
    ConstantColumnError,
    CsvParseError,
    NonBinaryResponseError,
    bundled_dataset_path,
    diagnostics,
    load_csv,
    save_csv,
)
from shrinklogit.logit import Dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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

    def test_intercept_column_is_excluded(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        data = Dataset(x, (rng.random(40) < 0.5).astype(float), has_intercept=True)
        report = diagnostics(data)
        assert report.correlation.shape == (2, 2)

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
