"""Which modules the package loads, and when.

``scipy.special`` (for the fit's link functions), ``concurrent.futures``
(for a parallel simulation), ``numpy.random`` (for a simulation's draws)
and ``importlib.resources`` (for the bundled dataset's path) are imported
where they are used, so that a command that does not need them starts
without them, and a process pool's workers inherit what they need from
the parent. Each check runs in a fresh ``python -S`` interpreter: the
``site`` module can preload some of these modules through ``.pth`` files,
which would hide a top-level import. ``PYTHONPATH`` names the package
source and NumPy's site-packages.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import shrinklogit
from shrinklogit import LinearRestriction, RiskScenario, bundled_dataset_path, save_scenario

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shrinklogit.__file__)))
SITE_PACKAGES = os.path.dirname(os.path.dirname(os.path.abspath(np.__file__)))
DEFERRED = ("scipy.special", "concurrent.futures", "numpy.random", "importlib.resources")

#: Prints, as one JSON line, which DEFERRED modules are loaded after
#: ``import shrinklogit.cli`` and after each command line given in argv.
SCRIPT = """
import contextlib, io, json, sys
import shrinklogit.cli
deferred = {deferred!r}
stages = [[name for name in deferred if name in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = shrinklogit.cli.main(argv)
    assert code == 0, (argv, code)
    stages.append([name for name in deferred if name in sys.modules])
print(json.dumps(stages))
"""


#: Runs a two-worker simulation whose blocks record the modules each pool
#: child imports while running one, and prints them as one JSON line.
POOL_SCRIPT = """
import json, sys
from shrinklogit import simulation
run_block = simulation._run_block

class ChildImported(Exception):
    pass

def recording_block(*args):
    before = set(sys.modules)
    outcome = run_block(*args)
    imported = sorted(set(sys.modules) - before)
    if imported:
        raise ChildImported(imported)
    return outcome

simulation._run_block = recording_block
config = simulation.SimulationConfig(
    n=40, p=4, rho=0.9, d_grid=(0.5,), reps=4, seed=1, restriction=simulation.default_restriction(4)
)
try:
    simulation.run_simulation(config, workers=2)
    imported = []
except ChildImported as err:
    imported = err.args[0]
print(json.dumps(imported))
"""


def last_json_line(script, *args):
    """The last line ``script`` prints, parsed, run as described above."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, SITE_PACKAGES]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(commands):
    """The DEFERRED modules loaded after the import and after each command."""
    return last_json_line(SCRIPT.format(deferred=DEFERRED), json.dumps(commands))


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    restriction = LinearRestriction(np.array([[1.0, -1.0, 0.0]]), np.zeros(1))
    save_scenario(path, RiskScenario(np.diag([4.0, 2.0, 0.5]), np.array([0.5, 0.5, -0.7]), restriction), d=0.5)
    return str(path)


def test_import_loads_no_deferred_module():
    assert loaded_after([]) == [[]]


def test_scenario_commands_load_no_deferred_module(scenario_file):
    commands = [
        ["dominance", "--scenario-file", scenario_file],
        ["risk", "--scenario-file", scenario_file, "--d-grid", "0.2,0.8"],
    ]
    assert loaded_after(commands) == [[], [], []]


def test_fit_loads_scipy_special():
    """The link functions are deferred to the first fit, not dropped.
    (scipy itself then loads the other two.)"""
    at_import, after_fit = loaded_after([["fit", str(bundled_dataset_path())]])
    assert at_import == [] and "scipy.special" in after_fit


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",  # the platform's default comes first
    reason="workers inherit modules only when forked",
)
def test_pool_children_import_nothing_the_parent_lacks():
    """The parent imports the link before it forks, so each worker inherits
    scipy.special instead of importing it for its first block."""
    assert last_json_line(POOL_SCRIPT) == []
