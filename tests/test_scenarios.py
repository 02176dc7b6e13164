"""Scenario file round-trips and parse errors."""

import re

import numpy as np
import pytest

from shrinklogit import CsvParseError, load_scenario, save_scenario
from shrinklogit.scenarios import load_restriction
from helpers import MALFORMED_SCENARIOS, random_scenario


class TestScenarioRoundTrip:
    def test_exact_round_trip_with_restriction(self, tmp_path):
        rng = np.random.default_rng(0)
        scenario = random_scenario(rng, 4, 2, beta_norm=1.7)
        path = tmp_path / "scenario.txt"
        save_scenario(path, scenario, d=0.35)
        back, d = load_scenario(path)
        assert d == 0.35
        assert np.array_equal(back.C, scenario.C)
        assert np.array_equal(back.beta_true, scenario.beta_true)
        assert np.array_equal(back.restriction.H, scenario.restriction.H)
        assert np.array_equal(back.restriction.h, scenario.restriction.h)

    def test_round_trip_without_restriction_or_d(self, tmp_path):
        rng = np.random.default_rng(1)
        scenario = random_scenario(rng, 3, 1)
        from shrinklogit import RiskScenario

        bare = RiskScenario(C=scenario.C, beta_true=scenario.beta_true)
        path = tmp_path / "bare.txt"
        save_scenario(path, bare)
        back, d = load_scenario(path)
        assert d is None
        assert back.restriction is None
        assert np.array_equal(back.C, bare.C)

    @pytest.mark.parametrize(
        "d, message",
        [
            (True, "d must be a real number, got True"),
            ("0.5", "d must be a real number, got '0.5'"),
            (2.0, "d must be in [0, 1], got 2.0"),
            (-0.25, "d must be in [0, 1], got -0.25"),
            (float("nan"), "d must be in [0, 1], got nan"),
        ],
    )
    def test_a_d_no_estimator_takes_is_refused_before_the_file_is_opened(self, tmp_path, d, message):
        path = tmp_path / "s.txt"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_scenario(path, random_scenario(np.random.default_rng(3), 3, 1), d=d)
        assert not path.exists()

    def test_every_d_an_estimator_takes_round_trips(self, tmp_path):
        path, scenario = tmp_path / "s.txt", random_scenario(np.random.default_rng(3), 3, 1)
        for d in (0, 1, 0.0, 1.0, np.float64(0.3), 5e-324):
            save_scenario(path, scenario, d=d)
            assert load_scenario(path)[1] == d

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(
            "# a scenario\n[meta]\nd = 0.5\n\n[C]\n2.0,0.0\n0.0,1.0\n\n"
            "[beta]\n1.0,0.0\n",
            encoding="utf-8",
        )
        scenario, d = load_scenario(path)
        assert d == 0.5
        np.testing.assert_allclose(scenario.C, np.diag([2.0, 1.0]))


    def test_byte_order_mark_is_skipped(self, tmp_path):
        rng = np.random.default_rng(2)
        plain = tmp_path / "plain.txt"
        save_scenario(plain, random_scenario(rng, 3, 1), d=0.25)
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (expected, expected_d), (back, d) = load_scenario(plain), load_scenario(marked)
        assert d == expected_d
        for name in ("C", "beta_true"):
            assert np.array_equal(getattr(back, name), getattr(expected, name))
        assert np.array_equal(back.restriction.H, expected.restriction.H)
        assert np.array_equal(back.restriction.h, expected.restriction.h)


class TestScenarioErrors:
    def test_missing_c_section(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("[beta]\n1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            load_scenario(path)

    def test_h_without_targets(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("[C]\n1.0\n[beta]\n1.0\n[H]\n1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            load_scenario(path)

    def test_bad_numeric_row(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("[C]\n1.0,nope\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            load_scenario(path)

    def test_data_before_section(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0,2.0\n[C]\n1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            load_scenario(path)

    @pytest.mark.parametrize("load", [load_scenario, load_restriction])
    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"[C]\n1.0\n[beta]\n\xff\n", "invalid start byte"),
            (b"# caf\xe9\n[C]\n1.0\n[beta]\n1.0\n", "invalid continuation byte"),
        ],
    )
    def test_non_utf8_file_names_the_file(self, tmp_path, load, data, reason):
        path = tmp_path / "s.txt"
        path.write_bytes(data)
        with pytest.raises(CsvParseError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text ({reason})"

    @pytest.mark.parametrize("section, text", MALFORMED_SCENARIOS)
    def test_malformed_file_names_file_and_section(self, tmp_path, section, text):
        path = tmp_path / "s.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvParseError, match=rf"^{re.escape(str(path))}:.*\[{section}\]"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "meta, line, named",
        [
            ("D = 0.5", 2, "unknown key 'D'"),
            ("d = 0.2\nd = 0.9", 3, "key 'd' twice"),
            ("m = 3", 2, "m = 3 for a 2 x 2 [C]"),
            ("m = 2.5", 2, "m = 2.5 for a 2 x 2 [C]"),
            ("m = two", 2, "non-numeric m = 'two'"),
            ("d = half", 2, "non-numeric d = 'half'"),
            ("d = 2", 2, "d = 2.0, not in [0, 1]"),
            ("m = 2\nd = -inf", 3, "d = -inf, not in [0, 1]"),
            ("d = NaN", 2, "d = nan, not in [0, 1]"),
        ],
    )
    def test_meta_error_names_line_and_key(self, tmp_path, meta, line, named):
        path = tmp_path / "s.txt"
        path.write_text(f"[meta]\n{meta}\n[C]\n3.0,0.0\n0.0,1.0\n[beta]\n1.0,-1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=f"^{re.escape(f'{path}:{line}: section [meta] ')}.*{re.escape(named)}"):
            load_scenario(path)

    def test_a_meta_line_without_an_equals_sign_is_refused(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("[meta]\nm = 2\nd 0.5\n[C]\n3.0,0.0\n0.0,1.0\n[beta]\n1.0,-1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"{path}:3: section [meta] expected 'key = value'"
        assert caught.value.row == 3


class TestScenarioVectors:
    """[beta] and [h] are one row or one column; any other block is refused."""

    C = "[C]\n3.0,0.0\n0.0,1.0\n"

    def test_column_vectors_read_like_rows(self, tmp_path):
        path = tmp_path / "s.txt"
        blocks = "[beta]\n1.0\n-1.0\n[H]\n1.0,0.0\n0.0,1.0\n[h]\n1.0\n-1.0\n"
        path.write_text(self.C + blocks, encoding="utf-8")
        scenario, _ = load_scenario(path)
        assert np.array_equal(scenario.beta_true, [1.0, -1.0])
        assert np.array_equal(scenario.restriction.h, [1.0, -1.0])

    @pytest.mark.parametrize(
        "section, blocks",
        [
            ("beta", "[beta]\n1.0,2.0,3.0\n-1.0,4.0,5.0\n"),
            ("h", "[beta]\n1.0,-1.0\n[H]\n1.0,0.0\n0.0,1.0\n[h]\n1.0,2.0\n-1.0,3.0\n"),
        ],
    )
    def test_block_of_several_columns_is_refused(self, tmp_path, section, blocks):
        path = tmp_path / "s.txt"
        path.write_text(self.C + blocks, encoding="utf-8")
        with pytest.raises(CsvParseError, match=rf"section \[{section}\]"):
            load_scenario(path)
