"""Scenario file round-trips and parse errors."""

import re

import numpy as np
import pytest

from shrinklogit import CsvParseError, load_scenario, save_scenario
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
        ],
    )
    def test_meta_error_names_line_and_key(self, tmp_path, meta, line, named):
        path = tmp_path / "s.txt"
        path.write_text(f"[meta]\n{meta}\n[C]\n3.0,0.0\n0.0,1.0\n[beta]\n1.0,-1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=f"^{re.escape(f'{path}:{line}: section [meta] ')}.*{re.escape(named)}"):
            load_scenario(path)


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
