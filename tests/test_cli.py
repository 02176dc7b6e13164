"""Command line surface: wiring, exit codes, and output stability."""

import argparse
import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from shrinklogit import KINDS, RiskScenario, bundled_dataset_path, d_sweep, load_scenario, save_scenario
from shrinklogit import cli
from shrinklogit.cli import main
from shrinklogit.logit import LinearRestriction
from helpers import MALFORMED_SCENARIOS, NON_FINITE_SCENARIOS, random_scenario
from test_datasets import PINNED_ERRORS, encode

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

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_an_infinite_tolerance_exits_one(self, capsys, tol):
        # it was taken: the fit stopped after one step and reported converged
        code, out, err = run(capsys, ["fit", BUNDLED, "--tol", tol])
        assert (code, out, err) == (1, "", "error: tol must be finite, got inf\n")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, ["fit", "no-such-file.csv"])
        assert code == 1
        assert "error" in err

    def test_output_to_a_directory_exits_one(self, capsys, tmp_path, monkeypatch):
        path = write_dataset(tmp_path)
        monkeypatch.setattr(cli, "load_csv", lambda *args, **kwargs: pytest.fail("the CSV was read"))
        code, out, err = run(capsys, ["fit", str(path), "--output", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err == f"error: --output {tmp_path}: is a directory\n"

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

    def test_single_predictor(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("y,x\n1,0.5\n0,-0.25\n1,1.5\n0,0.75\n1,-0.5\n", encoding="utf-8")
        code, out, err = run(capsys, ["fit", str(path), "--format", "csv"])
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        values = {row[0]: row[1] for row in rows}
        assert [row[0] for row in rows[:2]] == ["intercept", "x1"]
        assert (values["kappa"], values["max_abs_correlation"]) == ("1.0", "0.0")

    def test_nan_tolerance_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, ["fit", str(write_dataset(tmp_path)), "--tol", "nan"])
        assert_one_error_line(code, out, err)
        assert err == "error: tol must be positive\n"

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

    def test_scenario_file_names_what_it_replaces_in_group_order(self, capsys, tmp_path):
        """Given in reverse, the refused flags are still named CSV first,
        then dataset, fit and restriction flags, each in registration order."""
        path = tmp_path / "scenario.txt"
        save_scenario(path, random_scenario(np.random.default_rng(13), 3, 1))
        extra = ["--restriction-file", "scenario.txt", "--h", "0", "--H", "1,0,0", "--prob-clip", "0.2",
                 "--tol", "0.1", "--max-iter", "1", "--no-intercept", "--response", "0", "--no-header", BUNDLED]
        code, out, err = run(capsys, ["risk"] + extra + ["--scenario-file", str(path), "--d-grid", "0.5"])
        assert (code, out) == (1, "")
        assert err == (
            f"error: --scenario-file does not take the CSV {BUNDLED}, --no-header, --response, "
            "--no-intercept, --max-iter, --tol, --prob-clip, --H, --h, --restriction-file\n"
        )


def outcome(capsys, call):
    """(exit code, stdout, stderr) of ``call``, whether it returns or exits."""
    try:
        code = call()
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser():
    """A parser built afresh: the reference that the parser :func:`main`
    keeps for the process must match."""
    return cli.build_parser.__wrapped__()


#: Command lines that end in argparse's help or a usage error, so their
#: output comes from the parser alone.
PARSER_ONLY = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "fit"], ["--x", "fit", "a.csv"], ["fit", "a.csv", "extra", "more"],
    ["fit"], ["estimate", "a.csv"], ["risk"], ["dominance"], ["simulate"],
    ["fit", "a.csv", "--format", "xml"], ["dominance", "--scenario-file", "s", "--format", "xml"],
    ["risk", "--d-grid"], ["simulate", "--seed", "x"], ["dominance", "--scenario-file", "s", "--bogus"],
    *([name, "--help"] for name in cli._COMMANDS),
    # arguments that start with "-" but that argparse may take as the command
    ["-", "fit"], ["-1", "fit", "--help"], ["--", "fit", "--help"],
]


class TestParser:
    @pytest.mark.parametrize(
        "command, refused",
        [("risk", cli._SCENARIO_FILE_REPLACES), ("simulate", cli._TABLE_SUITE_FIXED)],
        ids=["scenario-file", "table-suite"],
    )
    def test_each_refused_flag_is_registered_and_defaults_to_none(self, command, refused):
        """A refusal tells a flag given by its value not being None."""
        (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        registered = commands.choices[command]._option_string_actions
        assert refused
        for flag, _ in refused:
            assert flag in registered
            assert registered[flag].default is None

    def test_a_process_registers_every_flag_once(self, capsys, tmp_path, monkeypatch):
        """The first call builds the parser with every command and all its
        flags; a later call registers nothing."""
        path = tmp_path / "scenario.txt"
        save_scenario(path, random_scenario(np.random.default_rng(12), 3, 1))
        registered = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(container, *args, **kwargs):
            registered.append(args[0])
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        cli.build_parser.cache_clear()
        assert run(capsys, ["dominance", "--scenario-file", str(path), "--d", "0.5"])[0] == 0
        assert registered == ["-h"] + [
            flag for _, _, flags in cli._COMMANDS.values() for flag in ("-h", *(flag for flag, _ in flags))
        ]
        registered.clear()
        assert run(capsys, ["fit", BUNDLED])[0] == 0
        assert registered == []

    def test_a_kept_parser_answers_as_a_fresh_one(self, capsys, tmp_path, monkeypatch):
        """Usage errors, --help exits and commands that run, interleaved on
        the one parser of the process, each give the exit code and bytes of
        a call with a parser built for it alone."""
        monkeypatch.setenv("COLUMNS", "80")
        path = tmp_path / "scenario.txt"
        save_scenario(path, random_scenario(np.random.default_rng(12), 3, 1), d=0.25)
        calls = [
            ["dominance", "--scenario-file", str(path)], ["fit", "--help"], ["fit", BUNDLED, "--format", "xml"],
            ["risk", "--scenario-file", str(path), "--d-grid", "0,1", "--format", "csv"], ["--help"],
            ["dominance", "--scenario-file", str(path), "--d", "0.5"], ["dominance"],
            ["fit", BUNDLED, "--max-iter", "1"], ["bogus"], ["fit", BUNDLED], ["risk", "--help"],
            ["dominance", "--scenario-file", str(path)],
        ]
        expected = []
        for argv in calls:
            cli.build_parser.cache_clear()
            expected.append(outcome(capsys, lambda: main(argv)))
        assert {type(code) for code, _, _ in expected} == {int} and {0, 1, 2} <= {code for code, _, _ in expected}
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        for argv, fresh in zip(calls + calls, expected + expected):
            assert outcome(capsys, lambda: main(argv)) == fresh, argv
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("argv", PARSER_ONLY, ids=" ".join)
    def test_help_and_usage_errors_match_the_full_parser(self, capsys, monkeypatch, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        expected = outcome(capsys, lambda: full_parser().parse_args(argv))
        assert type(expected[0]) is int
        assert outcome(capsys, lambda: main(argv)) == expected


class TestConsoleScript:
    """``main()`` with no argv, as the console script and ``python -m`` call it."""

    @pytest.fixture
    def dominance(self, tmp_path):
        path = tmp_path / "scenario.txt"
        save_scenario(path, random_scenario(np.random.default_rng(12), 3, 1))
        return ["dominance", "--scenario-file", str(path), "--d", "0.5"]

    def test_reads_sys_argv(self, capsys, monkeypatch, dominance):
        expected = run(capsys, dominance)
        assert expected[0] == 0
        monkeypatch.setattr(sys, "argv", ["shrinklogit", *dominance])
        assert run(capsys, None) == expected

    @pytest.mark.parametrize("which", ["help", "dominance"])
    def test_module_run_prints_the_in_process_bytes(self, capsys, monkeypatch, dominance, which):
        """The in-process call runs on a parser that has already served a
        usage error, a --help and another command; a fresh process builds
        its own."""
        argv = ["--help"] if which == "help" else dominance
        monkeypatch.setenv("COLUMNS", "80")
        for served in (["dominance"], ["risk", "--help"], ["fit", BUNDLED]):
            outcome(capsys, lambda: main(served))
        code, out, err = outcome(capsys, lambda: main(argv))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "shrinklogit.cli", *argv],
                                env=env, capture_output=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), err.encode())


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


#: The pinned errors whose arguments a command line can give: it reads
#: --response as an index or a name, never as a float or a bool.
CLI_PINNED_ERRORS = [case for case in PINNED_ERRORS if type(case.values[1].get("response_column", 0)) in (int, str)]


class TestInputErrors:
    @pytest.mark.parametrize("text, kwargs, error, message, row, column", CLI_PINNED_ERRORS)
    def test_malformed_csv_exits_one_with_one_error_line(self, capsys, tmp_path, text, kwargs, error, message, row, column):
        path = tmp_path / "data.csv"
        path.write_bytes(encode(text))
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


    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["estimate", "MISSING", "--estimator", "rmle", "--h", "1"],
                         "--h needs --H (the rows of H b = h)", id="estimate-h-without-H"),
            pytest.param(["estimate", "MISSING", "--estimator", "rmle", "--restriction-file", "FILE", "--H", "1,0"],
                         "--restriction-file does not take --H", id="estimate-file-with-H"),
            pytest.param(["estimate", "MISSING", "--estimator", "rmle", "--H", "1,-1,0,0;0,1"],
                         "--H has rows of different lengths", id="estimate-ragged-H"),
            pytest.param(["risk", "MISSING", "--d-grid", "0.5", "--h", "1"],
                         "--h needs --H (the rows of H b = h)", id="risk-h-without-H"),
            pytest.param(["risk", "MISSING", "--d-grid", "0.5", "--restriction-file", "FILE", "--H", "1,0"],
                         "--restriction-file does not take --H", id="risk-file-with-H"),
            pytest.param(["risk", "MISSING", "--d-grid", "0.5", "--H", "1,-1,0,0;0,1"],
                         "--H has rows of different lengths", id="risk-ragged-H"),
        ],
    )
    def test_restriction_flags_are_read_before_the_csv(self, capsys, tmp_path, argv, message):
        """A malformed restriction is reported before the CSV is read, so a
        missing CSV does not hide it."""
        names = {"MISSING": str(tmp_path / "missing.csv"), "FILE": str(tmp_path / "restriction.txt")}
        code, out, err = run(capsys, [names.get(arg, arg) for arg in argv])
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, flag, reason",
        [
            pytest.param(["fit", BUNDLED, "--output", "MISSING/out.csv"], "--output", "no directory MISSING",
                         id="fit-output"),
            pytest.param(["estimate", BUNDLED, "--estimator", "mle", "--output", "MISSING/out.csv"], "--output",
                         "no directory MISSING", id="estimate-output"),
            pytest.param(["risk", BUNDLED, "--d-grid", "0.5", "--output", "MISSING/out.csv"], "--output",
                         "no directory MISSING", id="risk-output"),
            pytest.param(["risk", BUNDLED, "--d-grid", "0.5", "--output", "OK/out.csv", "--plot-data",
                          "MISSING/plot.csv"], "--plot-data", "no directory MISSING", id="risk-plot-data"),
            pytest.param(["dominance", "--scenario-file", "FILE", "--output", "MISSING/out.csv"], "--output",
                         "no directory MISSING", id="dominance-output"),
            pytest.param(SIMULATE + ["--output", "MISSING/out.csv"], "--output", "no directory MISSING",
                         id="simulate-output"),
            pytest.param(SIMULATE + ["--output", "OK/out.csv", "--meta-out", "MISSING/meta.json"], "--meta-out",
                         "no directory MISSING", id="simulate-meta-out"),
            pytest.param(SIMULATE[:5] + ["--table-suite", "--output", "MISSING/out.csv"], "--output",
                         "no directory MISSING", id="table-suite-output"),
            pytest.param(SIMULATE[:5] + ["--table-suite", "--meta-out", "MISSING/meta.json"], "--meta-out",
                         "no directory MISSING", id="table-suite-meta-out"),
            pytest.param(["fit", BUNDLED, "--output", "DIR"], "--output", "is a directory", id="fit-output-dir"),
            pytest.param(["estimate", BUNDLED, "--estimator", "mle", "--output", "DIR"], "--output",
                         "is a directory", id="estimate-output-dir"),
            pytest.param(["risk", BUNDLED, "--d-grid", "0.5", "--output", "OK/out.csv", "--plot-data", "DIR"],
                         "--plot-data", "is a directory", id="risk-plot-data-dir"),
            pytest.param(["dominance", "--scenario-file", "FILE", "--output", "DIR"], "--output",
                         "is a directory", id="dominance-output-dir"),
            pytest.param(SIMULATE + ["--output", "DIR"], "--output", "is a directory", id="simulate-output-dir"),
            pytest.param(SIMULATE + ["--output", "OK/out.csv", "--meta-out", "DIR"], "--meta-out",
                         "is a directory", id="simulate-meta-out-dir"),
            pytest.param(SIMULATE + ["--output", "OK/taken.csv"], "--output",
                         "its metadata file OK/taken.csv.meta.json is a directory", id="simulate-derived-meta-dir"),
            pytest.param(SIMULATE[:5] + ["--table-suite", "--meta-out", "DIR"], "--meta-out", "is a directory",
                         id="table-suite-meta-out-dir"),
        ],
    )
    def test_missing_output_directory_exits_one_before_any_work(self, capsys, tmp_path, monkeypatch, argv, flag,
                                                                reason):
        """A file to write in a directory that does not exist, or that is a
        directory, is refused before any input is read or replication run,
        and nothing is written."""
        scenario = tmp_path / "scenario.txt"
        save_scenario(scenario, random_scenario(np.random.default_rng(12), 3, 1))
        (tmp_path / "dir").mkdir()
        (tmp_path / "taken.csv.meta.json").mkdir()
        for name in ("load_csv", "load_scenario", "run_simulation", "table_suite"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("work began"))
        names = {"MISSING": str(tmp_path / "missing"), "OK": str(tmp_path), "FILE": str(scenario),
                 "DIR": str(tmp_path / "dir")}

        def placed(arg):
            head, slash, tail = arg.partition("/")
            if head not in names:
                return arg
            return os.path.join(names[head], tail) if slash else names[head]

        argv = [placed(arg) for arg in argv]
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {flag} {argv[argv.index(flag) + 1]}: {' '.join(map(placed, reason.split()))}\n"
        assert sorted(tmp_path.rglob("*")) == before


class TestScenarioFileErrors:
    @pytest.mark.parametrize("section, text", MALFORMED_SCENARIOS)
    @pytest.mark.parametrize("command", [["risk", "--d-grid", "0.5"], ["dominance", "--d", "0.5"]])
    def test_malformed_file_exits_one_naming_file_and_section(self, capsys, tmp_path, command, section, text):
        path = tmp_path / "s.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command + ["--scenario-file", str(path)])
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: {path}") and f"[{section}]" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["risk", "--d-grid", "0.5", "--scenario-file"],
            ["dominance", "--d", "0.5", "--scenario-file"],
            ["estimate", BUNDLED, "--estimator", "rmle", "--restriction-file"],
        ],
    )
    def test_non_utf8_file_exits_one_naming_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "s.txt"
        path.write_bytes(b"[C]\n3.0,0.0\n0.0,1.0\n[beta]\n1.0,-1.0\n[H]\n1,0\n[h]\n\xff\n")
        code, out, err = run(capsys, command + [str(path)])
        assert (code, out, err) == (1, "", f"error: {path}: not UTF-8 text (invalid start byte)\n")

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

    def test_a_restriction_file_without_h_exits_one(self, capsys, tmp_path):
        path = tmp_path / "r.txt"
        save_scenario(path, RiskScenario(np.diag([3.0, 1.0]), np.array([1.0, -1.0])))
        code, out, err = run(capsys, ["estimate", BUNDLED, "--estimator", "rmle", "--restriction-file", str(path)])
        assert_one_error_line(code, out, err)
        assert err == f"error: {path} has no [H]/[h] sections\n"

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
            pytest.param(["--n", "3"], "n=3 is not above p=4", id="n-below-p"),
            pytest.param(["--seed", "-1"], "seed must be at least 0", id="negative-seed"),
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

    @pytest.mark.parametrize("flag", ["--n", "--p", "--rho"])
    def test_a_single_run_needs_n_p_and_rho(self, capsys, flag):
        argv = SIMULATE[:SIMULATE.index(flag)] + SIMULATE[SIMULATE.index(flag) + 2:]
        code, out, err = run(capsys, argv)
        assert_one_error_line(code, out, err)
        assert err == "error: --n, --p and --rho are required without --table-suite\n"

    def test_meta_out_writes_the_default_sidecars_bytes(self, tmp_path, capsys):
        base = SIMULATE + ["--d-grid", "0.5", "--format", "csv"]
        assert main(base + ["--output", str(tmp_path / "default.csv")]) == 0
        assert main(base + ["--output", str(tmp_path / "named.csv"), "--meta-out", str(tmp_path / "meta.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "meta.json").read_bytes() == (tmp_path / "default.csv.meta.json").read_bytes()
        assert not (tmp_path / "named.csv.meta.json").exists()

    def test_meta_out_to_a_directory_exits_one(self, tmp_path, capsys):
        code, out, err = run(capsys, ["simulate", "--n", "50", "--p", "4", "--rho", "0.9", "--reps", "2",
                                      "--seed", "7", "--d-grid", "0.5", "--meta-out", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err == f"error: --meta-out {tmp_path}: is a directory\n"

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

    def test_table_suite_names_what_it_fixes_in_group_order(self, capsys):
        """Given in reverse, the refused flags are still named shape, then
        restriction, then truth flags, each in registration order."""
        extra = ["--fixed-design", "--no-project-beta", "--restriction-file", "scenario.txt", "--h", "0",
                 "--H", "1,0,-2,1", "--rho", "0", "--p", "4", "--n", "50"]
        code, out, err = run(capsys, ["simulate", "--table-suite", "--seed", "1", "--reps", "2"] + extra)
        assert (code, out) == (1, "")
        assert err == (
            "error: --table-suite does not take --n, --p, --rho, --H, --h, --restriction-file, "
            "--no-project-beta, --fixed-design\n"
        )

    def test_reps_beyond_the_stream_keys_exits_one_before_running(self, capsys):
        code, out, err = run(capsys, SIMULATE[:3] + ["--reps", "4294967295"] + SIMULATE[5:])
        assert_one_error_line(code, out, err)
        assert err == "error: reps=4294967295 is too many: a configuration runs at most 4294967294 replications\n"

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
