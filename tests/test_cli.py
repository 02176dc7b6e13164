"""Command line surface: wiring, exit codes, and output stability."""

import csv
import io

import numpy as np
import pytest

from shrinklogit import KINDS, RiskScenario, bundled_dataset_path, d_sweep, load_scenario, save_scenario
from shrinklogit.cli import main
from shrinklogit.logit import LinearRestriction
from helpers import MALFORMED_SCENARIOS, NON_FINITE_SCENARIOS, random_scenario
from test_datasets import PINNED_ERRORS

BUNDLED = str(bundled_dataset_path())


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_dataset(tmp_path, name="d.csv"):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 3))
    beta = np.array([1.0, -0.5, 0.25])
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-(x @ beta)))).astype(float)
    lines = ["y,x1,x2,x3"]
    lines += [
        f"{int(yi)},{float(a)!r},{float(b)!r},{float(c)!r}" for yi, (a, b, c) in zip(y, x)
    ]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestFit:
    def test_reports_coefficients_and_diagnostics(self, capsys, tmp_path):
        path = write_dataset(tmp_path)
        code, out, _ = run(capsys, ["fit", str(path), "--format", "csv"])
        assert code == 0
        header, rows = parse_csv(out)
        names = [r[0] for r in rows]
        assert names[:4] == ["intercept", "x1", "x2", "x3"]
        assert "kappa" in names and "converged" in names
        assert dict(zip(names, (r[1] for r in rows)))["converged"] == "true"

    def test_non_convergence_exits_two_with_summary(self, capsys, tmp_path):
        path = write_dataset(tmp_path)
        code, out, err = run(capsys, ["fit", str(path), "--max-iter", "2"])
        assert code == 2
        assert "warning" in err
        assert "intercept" in out

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, ["fit", "no-such-file.csv"])
        assert code == 1
        assert "error" in err

    def test_output_to_a_directory_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, ["fit", str(write_dataset(tmp_path)), "--output", str(tmp_path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("header", [True, False])
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, header):
        text = write_dataset(tmp_path).read_text(encoding="utf-8")
        if not header:
            text = text.split("\n", 1)[1]
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        args = ["--response", "y"] if header else ["--no-header"]
        expected = run(capsys, ["fit", str(plain), *args])
        assert expected[0] == 0
        assert run(capsys, ["fit", str(marked), *args]) == expected

    def test_parse_error_reports_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x\n1,0.5\n0,oops\n", encoding="utf-8")
        code, _, err = run(capsys, ["fit", str(path)])
        assert code == 1
        assert "row 3" in err

    def test_matches_library_fit(self, capsys):
        from shrinklogit import irls_fit, load_csv

        code, out, _ = run(
            capsys, ["fit", BUNDLED, "--no-intercept", "--format", "csv"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        printed = [float(r[1]) for r in rows[:4]]
        fit = irls_fit(load_csv(BUNDLED, intercept=False))
        np.testing.assert_allclose(printed, fit.beta_mle, rtol=0, atol=0)


class TestEstimate:
    def test_raule_at_d_one_matches_rmle_row(self, capsys):
        args = [
            "estimate", BUNDLED, "--no-intercept",
            "--H", "1,-1,0,0;0,1,-1,0", "--format", "csv",
        ]
        code, out, _ = run(capsys, args + ["--estimator", "raule", "--d", "1.0"])
        assert code == 0
        _, raule_rows = parse_csv(out)
        code, out, _ = run(capsys, args + ["--estimator", "rmle"])
        assert code == 0
        _, rmle_rows = parse_csv(out)
        np.testing.assert_allclose(
            [float(v) for v in raule_rows[0][2:]],
            [float(v) for v in rmle_rows[0][2:]],
            rtol=1e-12,
        )

    def test_d_grid_expands_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["estimate", BUNDLED, "--no-intercept", "--estimator", "aule",
             "--d", "0.1,0.5", "--format", "csv"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert [r[1] for r in rows] == ["0.1", "0.5"]

    def test_stock_restriction_string_parses(self, capsys, tmp_path):
        from shrinklogit.cli import _matrix_flag
        from shrinklogit.simulation import default_restriction

        parsed = _matrix_flag("--H", "1,0,-2,1;1,-1,1,-1")
        np.testing.assert_array_equal(parsed, default_restriction(4).H)

    @pytest.mark.parametrize(
        "scenario",
        [
            pytest.param("", id="H-and-h-only"),
            pytest.param("[C]\n2.0,0.0\n0.0,2.0\n[beta]\n1.0,1.0\n", id="smaller-C-and-beta"),
            pytest.param(None, id="saved-scenario"),
        ],
    )
    def test_restriction_file_is_read_for_its_h_sections(self, capsys, tmp_path, scenario):
        H, h = [[0.0, 1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0, 0.0]], [0.0, 0.5]
        path = tmp_path / "restriction.txt"
        if scenario is None:
            save_scenario(path, RiskScenario(np.eye(5), np.zeros(5), LinearRestriction(H, h)))
        else:
            path.write_text(scenario + "[H]\n0,1,-1,0,0\n0,0,1,-1,0\n[h]\n0,0.5\n", encoding="utf-8")
        args = ["estimate", BUNDLED, "--estimator", "rmle,raule", "--d", "0.5", "--format", "csv"]
        code, out, err = run(capsys, args + ["--restriction-file", str(path)])
        assert (code, err) == (0, "")
        assert out == run(capsys, args + ["--H", "0,1,-1,0,0;0,0,1,-1,0", "--h", "0,0.5"])[1]

    def test_missing_restriction_exits_one_with_hint(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", BUNDLED, "--no-intercept", "--estimator", "rmle"],
        )
        assert code == 1
        assert "hint" in err

    def test_missing_d_names_d_not_the_restriction(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", BUNDLED, "--no-intercept", "--estimator", "le"],
        )
        assert code == 1
        assert "--d" in err
        assert "--H" not in err

    def test_unknown_estimator(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", BUNDLED, "--no-intercept", "--estimator", "ridge"],
        )
        assert code == 1
        assert err == f"error: unknown estimator kind 'ridge', expected one of {KINDS}\n"


class TestRisk:
    def test_scenario_file_round_trip_is_stable(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        scenario = random_scenario(rng, 3, 1)
        path = tmp_path / "scenario.txt"
        save_scenario(path, scenario, d=0.4)
        args = ["risk", "--scenario-file", str(path), "--d-grid", "0.2,0.8",
                "--format", "csv"]
        code, first, _ = run(capsys, args)
        assert code == 0
        code, second, _ = run(capsys, args)
        assert first == second

    def test_d_one_rows_collapse_pairwise(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        scenario = random_scenario(rng, 4, 2)
        path = tmp_path / "scenario.txt"
        save_scenario(path, scenario)
        code, out, _ = run(
            capsys,
            ["risk", "--scenario-file", str(path), "--d-grid", "1.0", "--format", "csv"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        mse = {row[1]: float(row[2]) for row in rows}
        assert mse["aule"] == pytest.approx(mse["mle"], rel=1e-12)
        assert mse["raule"] == pytest.approx(mse["rmle"], rel=1e-12)

    def test_plug_in_mode_keeps_restricted_below_unrestricted(self, capsys):
        grid = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.99"
        code, out, _ = run(
            capsys,
            ["risk", BUNDLED, "--no-intercept", "--H", "1,-1,0,0;0,1,-1,0",
             "--d-grid", grid, "--format", "csv"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        by_d = {}
        for row in rows:
            by_d.setdefault(row[0], {})[row[1]] = float(row[2])
        assert len(by_d) == 10
        for cells in by_d.values():
            assert cells["raule"] < cells["aule"]

    def test_plot_data_emission(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        scenario = random_scenario(rng, 3, 1)
        spath = tmp_path / "scenario.txt"
        save_scenario(spath, scenario)
        plot = tmp_path / "series.csv"
        code, _, _ = run(
            capsys,
            ["risk", "--scenario-file", str(spath), "--d-grid", "0.1,0.9",
             "--plot-data", str(plot), "--format", "csv"],
        )
        assert code == 0
        kinds = ["mle", "rmle", "aule", "raule"]
        sweep = d_sweep(load_scenario(spath)[0], kinds, [0.1, 0.9])
        mse = {(row.d, row.kind): row.mse for row in sweep}
        expected = ",".join(f"{kind}_{col}" for kind in kinds for col in ("d", "mse")) + "\n"
        for d in (0.1, 0.9):
            expected += ",".join(f"{d!r},{mse[d, kind]!r}" for kind in kinds) + "\n"
        assert plot.read_bytes() == expected.encode()

    @pytest.mark.parametrize("estimators", ["aule,aule", "mle,MLE"])
    def test_plot_data_with_a_repeated_kind(self, capsys, tmp_path, estimators):
        """A kind given twice is two series, each with one row per grid point."""
        spath = tmp_path / "scenario.txt"
        save_scenario(spath, random_scenario(np.random.default_rng(9), 3, 1))
        plot = tmp_path / "series.csv"
        code, _, _ = run(
            capsys,
            ["risk", "--scenario-file", str(spath), "--d-grid", "0.1,0.5,0.9",
             "--estimators", estimators, "--plot-data", str(plot)],
        )
        assert code == 0
        kind = estimators.split(",")[0].lower()
        sweep = d_sweep(load_scenario(spath)[0], [kind], [0.1, 0.5, 0.9])
        expected = [f"{kind}_d,{kind}_mse,{kind}_d,{kind}_mse"]
        expected += [f"{row.d!r},{row.mse!r},{row.d!r},{row.mse!r}" for row in sweep]
        assert plot.read_text(encoding="utf-8").splitlines() == expected

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, ["risk", "--d-grid", "0.5"])
        assert code == 1

    @pytest.mark.parametrize(
        "extra",
        [
            [BUNDLED],
            ["--no-header"],
            ["--response", "0"],
            ["--no-intercept"],
            ["--max-iter", "1"],
            ["--tol", "0.1"],
            ["--prob-clip", "0.2"],
            ["--H", "1,0,0"],
            ["--h", "0"],
            ["--restriction-file", "scenario.txt"],
            [BUNDLED, "--H", "1,0", "--max-iter", "1"],
        ],
    )
    def test_scenario_file_rejects_the_input_it_replaces(self, capsys, tmp_path, extra):
        path = tmp_path / "scenario.txt"
        save_scenario(path, random_scenario(np.random.default_rng(13), 3, 1))
        code, out, err = run(capsys, ["risk"] + extra + ["--scenario-file", str(path), "--d-grid", "0.5"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: --scenario-file does not take ")
        for named in (arg for arg in extra if arg == BUNDLED or arg.startswith("--")):
            assert named in err


class TestDominance:
    def test_reports_all_six_checks(self, capsys, tmp_path):
        rng = np.random.default_rng(10)
        scenario = random_scenario(rng, 4, 2)
        path = tmp_path / "scenario.txt"
        save_scenario(path, scenario, d=0.5)
        code, out, _ = run(
            capsys, ["dominance", "--scenario-file", str(path), "--format", "csv"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["T3.3", "T3.4", "T3.5", "T3.6", "T3.7", "C3.1"]
        t37 = rows[4]
        assert t37[1] == "true" and t37[3] == "true"

    def test_d_flag_overrides_file(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        scenario = random_scenario(rng, 3, 1)
        path = tmp_path / "scenario.txt"
        save_scenario(path, scenario, d=0.9)
        code, out, _ = run(
            capsys,
            ["dominance", "--scenario-file", str(path), "--d", "0.2", "--format", "csv"],
        )
        assert code == 0
        assert "d=0.2" in out

    def test_full_restriction_reports_all_six_checks(self, capsys, tmp_path):
        """With H = I (q = m) A vanishes: T3.4/T3.6 have no positive a_ii."""
        path = tmp_path / "scenario.txt"
        path.write_text(
            "[C]\n3.0,0.0\n0.0,1.0\n[beta]\n1.0,-1.0\n[H]\n1.0,0.0\n0.0,1.0\n[h]\n1.0,-1.0\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, ["dominance", "--scenario-file", str(path), "--d", "0.5", "--format", "csv"]
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["T3.3", "T3.4", "T3.5", "T3.6", "T3.7", "C3.1"]
        for row in (rows[1], rows[3]):
            assert row[2] == "false" and float(row[5]) == 0.0
            assert "min_positive_a=inf" in row[6]

    def test_missing_d_everywhere(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        scenario = random_scenario(rng, 3, 1)
        path = tmp_path / "scenario.txt"
        save_scenario(path, scenario)
        code, _, err = run(capsys, ["dominance", "--scenario-file", str(path)])
        assert code == 1

    @pytest.mark.parametrize("d", ["1.5", "-0.2", "nan"])
    def test_invalid_d_exits_one(self, capsys, tmp_path, d):
        path = tmp_path / "scenario.txt"
        save_scenario(path, random_scenario(np.random.default_rng(12), 3, 1))
        code, out, err = run(capsys, ["dominance", "--scenario-file", str(path), f"--d={d}"])
        assert (code, out) == (1, "")
        assert err == f"error: d must be in [0, 1], got {float(d)}\n"


def assert_one_error_line(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


#: Number flags no command may accept, as (flag, value); "--d" stands for
#: the command's d flag.
BAD_NUMBER_FLAGS = [
    pytest.param("--H", "1,-1,0,0;0,1", id="ragged-H"),
    pytest.param("--H", "0,1,,-1,0", id="empty-item-H"),
    pytest.param("--H", "1,-1,0,0;", id="empty-row-H"),
    pytest.param("--H", "1,-1,x,0", id="non-number-H"),
    pytest.param("--h", "0,", id="empty-item-h"),
    pytest.param("--d", "0.5,", id="empty-item-d"),
]

#: Each command's arguments and its d flag, for BAD_NUMBER_FLAGS.
NUMBER_FLAG_COMMANDS = {
    "estimate": (["estimate", BUNDLED, "--no-intercept", "--estimator", "raule"], "--d"),
    "risk": (["risk", BUNDLED, "--no-intercept"], "--d-grid"),
}


SIMULATE = ["simulate", "--seed", "3", "--reps", "3", "--n", "50", "--p", "4", "--rho", "0.9"]
NO_KINDS = f"need at least one estimator kind from {KINDS}"


class TestInputErrors:
    @pytest.mark.parametrize("text, kwargs, error, message, row, column", PINNED_ERRORS)
    def test_malformed_csv_exits_one_with_one_error_line(self, capsys, tmp_path, text, kwargs, error, message, row, column):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        argv = ["fit", str(path)]
        if kwargs.get("header") is False:
            argv.append("--no-header")
        if "response_column" in kwargs:
            argv.append(f"--response={kwargs['response_column']}")
        code, out, err = run(capsys, argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("flag, value", BAD_NUMBER_FLAGS)
    @pytest.mark.parametrize("command", sorted(NUMBER_FLAG_COMMANDS))
    def test_bad_number_flag_exits_one_naming_the_flag(self, capsys, command, flag, value):
        argv, d_flag = NUMBER_FLAG_COMMANDS[command]
        flag = d_flag if flag == "--d" else flag
        flags = {"--H": "1,-1,0,0;0,1,-1,0", "--h": "0,0", d_flag: "0.5", flag: value}
        code, out, err = run(capsys, argv + [part for item in flags.items() for part in item])
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: {flag}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(SIMULATE + ["--d-grid", ""], "--d-grid: cannot parse numeric row ''", id="simulate-d-grid"),
            pytest.param(SIMULATE + ["--kinds", ""], NO_KINDS, id="simulate-kinds"),
            pytest.param(SIMULATE[:5] + ["--table-suite", "--kinds", ""], NO_KINDS, id="table-suite-kinds"),
            pytest.param(["risk", BUNDLED, "--d-grid", "0.5", "--estimators", ""], NO_KINDS, id="risk-estimators"),
            pytest.param(["estimate", BUNDLED, "--estimator", ","], NO_KINDS, id="estimate-estimator"),
        ],
    )
    def test_empty_request_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["estimate", BUNDLED, "--no-intercept", "--estimator", "mle", "--h", "1,2"],
                         "--h needs --H (the rows of H b = h)", id="h-without-H"),
            pytest.param(["risk", BUNDLED, "--d-grid", "0.5", "--h", "0"],
                         "--h needs --H (the rows of H b = h)", id="risk-h-without-H"),
            pytest.param(["estimate", BUNDLED, "--no-intercept", "--estimator", "rmle", "--restriction-file", "FILE",
                          "--H", "0,1,0,0", "--h", "5"],
                         "--restriction-file does not take --H, --h", id="file-with-H-and-h"),
            pytest.param(["risk", BUNDLED, "--no-intercept", "--d-grid", "0.5", "--restriction-file", "FILE", "--h", "5"],
                         "--restriction-file does not take --h", id="file-with-h"),
            pytest.param(["estimate", BUNDLED, "--estimator", "mle,rmle", "--d", "0.5"],
                         "--d is only for the shrinkage estimators, and --estimator 'mle,rmle' has none",
                         id="d-without-shrinkage-kind"),
            pytest.param(["estimate", BUNDLED, "--estimator", "mle", "--H", "1,0"],
                         "--H: a restriction is only for the restricted estimators, and --estimator 'mle' has none",
                         id="H-without-restricted-kind"),
            pytest.param(["estimate", BUNDLED, "--estimator", "mle,aule", "--d", "0.5", "--restriction-file", "FILE"],
                         "--restriction-file: a restriction is only for the restricted estimators, "
                         "and --estimator 'mle,aule' has none", id="file-without-restricted-kind"),
            pytest.param(["risk", BUNDLED, "--estimators", "mle,aule", "--d-grid", "0.5", "--H", "0,1,0,0,0"],
                         "--H: a restriction is only for the restricted estimators, and --estimators 'mle,aule' has none",
                         id="risk-H-without-restricted-kind"),
            pytest.param(["risk", BUNDLED, "--estimators", "le", "--d-grid", "0.5", "--H", "0,1,0,0,0", "--h", "1"],
                         "--H: a restriction is only for the restricted estimators, and --estimators 'le' has none",
                         id="risk-H-and-h-without-restricted-kind"),
            pytest.param(["estimate", BUNDLED, "--estimator", "mle,"],
                         "--estimator: empty item in kind list 'mle,'", id="estimator-empty-item"),
            pytest.param(["risk", BUNDLED, "--d-grid", "0.5", "--estimators", "mle,,aule"],
                         "--estimators: empty item in kind list 'mle,,aule'", id="estimators-empty-item"),
            pytest.param(SIMULATE + ["--kinds", "mle,,aule"],
                         "--kinds: empty item in kind list 'mle,,aule'", id="kinds-empty-item"),
        ],
    )
    def test_flag_that_would_be_ignored_exits_one(self, capsys, tmp_path, argv, message):
        """Each of these once ran as if the flag or item were absent."""
        path = tmp_path / "restriction.txt"
        restriction = LinearRestriction(np.array([[1.0, 0.0, 0.0, 0.0]]), np.zeros(1))
        save_scenario(path, RiskScenario(np.eye(4), np.zeros(4), restriction))
        code, out, err = run(capsys, [str(path) if arg == "FILE" else arg for arg in argv])
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"


class TestScenarioFileErrors:
    @pytest.mark.parametrize("section, text", MALFORMED_SCENARIOS)
    @pytest.mark.parametrize("command", [["risk", "--d-grid", "0.5"], ["dominance", "--d", "0.5"]])
    def test_malformed_file_exits_one_naming_file_and_section(self, capsys, tmp_path, command, section, text):
        path = tmp_path / "s.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command + ["--scenario-file", str(path)])
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: {path}") and f"[{section}]" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["risk", "--d-grid", "0.5"], ["dominance", "--d", "0.5"]])
    def test_non_finite_truth_exits_one(self, capsys, tmp_path, command, value):
        path = tmp_path / "s.txt"
        path.write_text(f"[C]\n3.0,0.0\n0.0,1.0\n[beta]\n{value},-1.0\n[H]\n1,0\n[h]\n0\n", encoding="utf-8")
        code, out, err = run(capsys, command + ["--scenario-file", str(path)])
        assert (code, out, err) == (1, "", f"error: {path}:5: section [beta] has non-finite entries\n")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("section", ["H", "h"])
    def test_non_finite_restriction_file_exits_one_naming_the_section(self, capsys, tmp_path, section, value):
        path = tmp_path / "r.txt"
        path.write_text(NON_FINITE_SCENARIOS[section].format(value), encoding="utf-8")
        code, out, err = run(capsys, ["estimate", BUNDLED, "--estimator", "rmle", "--restriction-file", str(path)])
        assert_one_error_line(code, out, err)
        assert f"section [{section}] has non-finite entries" in err

    @pytest.mark.parametrize(
        "command", [["risk", "--d-grid", "0.5", "--estimators", "raule"], ["dominance", "--d", "0.5"]]
    )
    def test_missing_restriction_hint_points_to_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "s.txt"
        save_scenario(path, RiskScenario(np.diag([3.0, 1.0]), np.array([1.0, -1.0])))
        code, out, err = run(capsys, command + ["--scenario-file", str(path)])
        assert (code, out) == (1, "")
        assert err.endswith("\nhint: add [H] and [h] sections to the scenario file\n")


class TestSimulate:
    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--H", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"],
                         "project_beta needs fewer restriction rows than p=4", id="full-restriction"),
            pytest.param(["--n", "3"], "n=3 is below p=4", id="n-below-p"),
        ],
    )
    def test_config_that_can_only_fail_exits_one_before_running(self, capsys, flags, message):
        code, out, err = run(capsys, SIMULATE + flags)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: {message}")

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--n", "50", "--p", "4", "--rho", "0.9", "--reps", "3"])
        assert excinfo.value.code == 1

    def test_byte_identical_output_across_runs_and_workers(self, tmp_path, capsys):
        base = ["simulate", "--n", "60", "--p", "4", "--rho", "0.9", "--reps", "16",
                "--seed", "99", "--d-grid", "0.2,0.8", "--format", "csv"]
        paths = [tmp_path / f"out{k}.csv" for k in range(3)]
        assert main(base + ["--output", str(paths[0])]) == 0
        assert main(base + ["--output", str(paths[1])]) == 0
        assert main(base + ["--output", str(paths[2]), "--workers", "2"]) == 0
        capsys.readouterr()
        first = paths[0].read_bytes()
        assert paths[1].read_bytes() == first
        assert paths[2].read_bytes() == first

    def test_metadata_sidecar(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--n", "50", "--p", "4", "--rho", "0.9",
                     "--reps", "4", "--seed", "7", "--d-grid", "0.5",
                     "--format", "csv", "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        import json

        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["n"] == 50
        assert meta["H"] == [[1.0, 0.0, -2.0, 1.0], [1.0, -1.0, 1.0, -1.0]]

    def test_meta_out_to_a_directory_exits_one(self, tmp_path, capsys):
        code, _, err = run(capsys, ["simulate", "--n", "50", "--p", "4", "--rho", "0.9", "--reps", "2",
                                    "--seed", "7", "--d-grid", "0.5", "--meta-out", str(tmp_path)])
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("suite", [[], ["--table-suite"]])
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exit_one(self, capsys, suite, workers):
        single = [] if suite else ["--n", "50", "--p", "4", "--rho", "0.9"]
        code, out, err = run(capsys, ["simulate", "--seed", "3", "--reps", "3", "--workers", workers] + suite + single)
        assert code == 1
        assert out == ""
        assert err == "error: workers must be at least 1\n"

    def test_single_run_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "50", "--p", "4", "--rho", "0.9", "--reps", "5",
             "--seed", "3", "--d-grid", "0.3,0.7", "--kinds", "mle,raule",
             "--format", "csv"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:5] == ["n", "p", "rho", "kind", "d"]
        assert len(rows) == 4  # 2 kinds x 2 d values
        completed = {int(r[7]) + int(r[8]) for r in rows}
        assert completed == {5}

    def test_text_layout_groups_by_shape(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "50", "--p", "4", "--rho", "0.9", "--reps", "4",
             "--seed", "3", "--d-grid", "0.5"],
        )
        assert code == 0
        assert "# n=50 p=4" in out
        assert "rho=0.9" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n", "50"),
            ("--p", "4"),
            ("--rho", "0"),
            ("--H", "1,0,-2,1"),
            ("--h", "0"),
            ("--restriction-file", "scenario.txt"),
            ("--no-project-beta", None),
            ("--fixed-design", None),
        ],
    )
    def test_table_suite_rejects_flags_it_would_ignore(self, capsys, flag, value):
        extra = [flag] if value is None else [flag, value]
        code, out, err = run(capsys, ["simulate", "--table-suite", "--seed", "1", "--reps", "2"] + extra)
        assert code == 1
        assert out == ""
        assert flag in err

    SMALL = ["simulate", "--n", "80", "--p", "4", "--rho", "0.9", "--reps", "40", "--seed", "1234",
             "--d-grid", "0.5", "--format", "csv"]

    @pytest.mark.parametrize("flag, value", [("--max-iter", "5"), ("--tol", "0.01"), ("--prob-clip", "0.2")])
    def test_fit_flags_change_the_run(self, capsys, flag, value):
        _, default, _ = run(capsys, self.SMALL)
        code, out, _ = run(capsys, self.SMALL + [flag, value])
        assert code == 0
        assert out != default

    def test_skips_by_reason_in_meta(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(self.SMALL + ["--max-iter", "5", "--output", str(out)]) == 0
        capsys.readouterr()
        import json

        _, rows = parse_csv(out.read_text())
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["max_iter"] == 5
        skipped = int(rows[0][8])
        assert skipped > 0
        assert meta["skipped_by_reason"] == {"not_converged": skipped, "singular_information": 0}

    @pytest.mark.parametrize("suite", [[], ["--table-suite"]])
    def test_max_iter_one_skips_every_replication(self, capsys, suite):
        base = ["simulate", "--seed", "3", "--reps", "3", "--max-iter", "1"]
        single = [] if suite else ["--n", "50", "--p", "4", "--rho", "0.9"]
        code, out, err = run(capsys, base + suite + single)
        assert code == 1
        assert out == ""
        assert "all 3 replications failed to fit" in err

    @pytest.mark.parametrize("suite", [[], ["--table-suite"]])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-iter", "0", "max_iter must be at least 1"),
            ("--tol", "0", "tol must be positive"),
            ("--prob-clip", "0.5", "prob_clip must be in (0, 0.5)"),
        ],
    )
    def test_invalid_fit_flags_exit_one(self, capsys, suite, flag, value, message):
        single = [] if suite else ["--n", "50", "--p", "4", "--rho", "0.9"]
        code, out, err = run(capsys, ["simulate", "--seed", "3", "--reps", "3", flag, value] + suite + single)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
