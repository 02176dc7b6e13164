"""Every number and list flag of the command line refuses a malformed value.

Each command runs once with valid flags, then once per (flag, value) with
that flag replaced by a malformed value. Each such call must exit 1 with
one ``error:`` line on stderr and no traceback: a usage error from the
parser, or the library's refusal of the value it was handed. The values
are passed as ``--flag=value``, so that ``-inf`` and ``""`` reach the flag.
"""

import numpy as np
import pytest

from shrinklogit import RiskScenario, bundled_dataset_path, save_scenario
from shrinklogit.cli import main
from shrinklogit.logit import LinearRestriction

BUNDLED = str(bundled_dataset_path())

#: Malformed values for a number or a comma separated list; 1e400 parses to inf.
MALFORMED = ["", "nan", "inf", "-inf", "1e400", "1j", "abc", "None", "True", ",", "0.5,"]

_FIT = {"--max-iter": "50", "--tol": "1e-8", "--prob-clip": "1e-6"}
_RESTRICTION = {"--H": "1,-1,0,0;0,1,-1,0", "--h": "0,0"}

#: label -> (argv before the flags, {flag: valid value}); the scenario file's
#: path is the ``{scenario}`` slot.
COMMANDS = {
    "fit": (["fit", BUNDLED, "--no-intercept"], _FIT),
    "estimate": (
        ["estimate", BUNDLED, "--no-intercept"],
        {**_FIT, **_RESTRICTION, "--estimator": "mle,raule", "--d": "0.25,0.5"},
    ),
    "risk-csv": (
        ["risk", BUNDLED, "--no-intercept"],
        {**_FIT, **_RESTRICTION, "--d-grid": "0.25,0.5", "--estimators": "mle,raule"},
    ),
    "risk-scenario-file": (
        ["risk", "--scenario-file", "{scenario}"], {"--d-grid": "0.25,0.5", "--estimators": "mle,raule"},
    ),
    "dominance": (["dominance", "--scenario-file", "{scenario}"], {"--d": "0.5"}),
    "simulate": (
        ["simulate", "--format", "csv"],
        {
            "--seed": "1", "--reps": "2", "--n": "50", "--p": "4", "--rho": "0.9", "--workers": "1",
            "--d-grid": "0.5", "--kinds": "mle,raule", **_FIT, **_RESTRICTION,
        },
    ),
}


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "scenario.txt"
    restriction = LinearRestriction([[1.0, -1.0, 0.0]], [0.0])
    save_scenario(path, RiskScenario(np.diag([3.0, 2.0, 1.0]), np.array([1.0, 1.0, -0.5]), restriction))
    return str(path)


def run(capsys, argv):
    """(exit code, stderr) of one in-process call; a parser error exits."""
    try:
        code = main(argv)
    except SystemExit as exit:
        code = exit.code
    return code, capsys.readouterr().err


def argv_of(command, scenario_path, **replaced):
    head, flags = COMMANDS[command]
    argv = [scenario_path if arg == "{scenario}" else arg for arg in head]
    return argv + [f"{flag}={replaced.get(flag, value)}" for flag, value in flags.items()]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_takes_its_valid_flags(command, scenario_path, capsys):
    code, err = run(capsys, argv_of(command, scenario_path))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command, flag", [(command, flag) for command in COMMANDS for flag in COMMANDS[command][1]])
def test_every_number_and_list_flag_refuses_a_malformed_value(command, flag, scenario_path, capsys):
    """One test per flag, over every malformed value: --tol inf was taken,
    and the fit stopped after one step, reported as converged."""
    wrong = []
    for value in MALFORMED:
        code, err = run(capsys, argv_of(command, scenario_path, **{flag: value}))
        lines = [line for line in err.splitlines() if "error:" in line]
        if code != 1 or len(lines) != 1 or "Traceback" in err:
            wrong.append((value, code, err))
    assert wrong == []
