"""The names the traced benchmark rebinds still exist, and the package
gives the same outputs when they are rebound.

``perfbench/layers.py`` lists in ``PATCHES`` each (module, attribute) that
``run.py --trace 1`` rebinds to a traced wrapper, and ``layers.install``
raises AttributeError for one that is gone. Some of them, such as
``dominance.moore_penrose``, are no longer called by their module and are
kept bound only for this. The list is read from the source, not imported,
so the test needs nothing from the benchmark's own path.

A wrapper is a plain function, even where the name is a class
(``RiskScenario``), so the package must not use a rebound name as a class,
a dictionary key or an identity: ``isinstance(x, RiskScenario)`` in
``risk`` ends the traced run with a TypeError.
"""

import ast
import functools
import importlib
from pathlib import Path

import numpy as np

from shrinklogit import KINDS, EstimatorSpec, LinearRestriction, SimulationConfig, default_restriction

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _value(node, names):
    return eval(compile(ast.Expression(node), str(LAYERS), "eval"), {}, names)


def patched_names():
    """Every (module name, attribute) of ``PATCHES``, with its
    comprehensions expanded over the module's literal constants."""
    constants, patches = {}, None
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "PATCHES":
                patches = node.value
            else:
                try:
                    constants[name] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    out = []
    for entry in patches.elts:
        if isinstance(entry, ast.Starred):
            (loop,) = entry.value.generators
            for item in constants[loop.iter.id]:
                module, attr = entry.value.elt.elts[:2]
                out.append((module.id, _value(attr, {loop.target.id: item})))
        else:
            module, attr = entry.elts[:2]
            out.append((module.id, _value(attr, {})))
    return out


def test_every_patched_name_resolves():
    names = patched_names()
    assert ("dominance", "moore_penrose") in names and ("dominance", "check_c31") in names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"shrinklogit.{module}"), attr)
    ]
    assert missing == []


#: ``layers.install`` rebinds ``cli.main`` too, outside ``PATCHES``.
INSTALLED_BESIDE = [("cli", "main")]


def plain(function):
    """A plain-function stand-in for ``function``, made as the tracer makes one."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


def module(name):
    return importlib.import_module(f"shrinklogit.{name}")


def traced_paths(tmp_path, capsys):
    """What the traced workloads run, called through module attributes as
    they call it: a scenario's sweep, checks at two d and file round trip,
    the CLI's risk and dominance commands on that file, and a Monte Carlo
    cell. Returned as plain values, compared exactly."""
    risk, dominance, scenarios = module("risk"), module("dominance"), module("scenarios")
    cli, simulation = module("cli"), module("simulation")
    rng = np.random.default_rng(33)
    G = rng.standard_normal((4, 4))
    C = G @ G.T + 0.5 * np.eye(4)
    restriction = LinearRestriction(rng.standard_normal((2, 4)), rng.standard_normal(2))
    scenario = risk.RiskScenario(C, rng.standard_normal(4), restriction)
    sweep = [
        (row.d, row.kind, row.mse, row.report.cov.tolist(), row.report.bias.tolist())
        for row in risk.d_sweep(scenario, KINDS, [0.2, 0.7])
    ]
    verdicts = [v.as_record() for d in (0.2, 0.7) for v in dominance.check_all(scenario, d)]
    single = risk.risk(scenario, EstimatorSpec("raule", 0.7))
    path = tmp_path / "scenario.txt"
    scenarios.save_scenario(path, scenario, 0.7)
    back, back_d = scenarios.load_scenario(path)
    loaded = (back.C.tolist(), back.beta_true.tolist(), back.restriction.H.tolist(), back.restriction.h.tolist(), back_d)
    commands = []
    for argv in (
        ["dominance", "--scenario-file", str(path)],
        ["risk", "--scenario-file", str(path), "--d-grid", "0.2,0.7", "--estimators", "mle,rle,raule"],
    ):
        code = cli.main(argv)
        commands.append((code, *capsys.readouterr()))
    config = SimulationConfig(n=50, p=4, rho=0.9, d_grid=(0.5,), reps=2, seed=7, restriction=default_restriction(4))
    result = simulation.run_simulation(config)
    cells = [(cell.kind, cell.d, cell.mse) for cell in result.cells]
    return {
        "sweep": sweep,
        "verdicts": verdicts,
        "risk": (single.mse, single.cov.tolist(), single.bias.tolist()),
        "file": path.read_bytes(),
        "loaded": loaded,
        "commands": commands,
        "simulation": (cells, result.completed, result.skipped_by_reason),
    }


def test_rebinding_every_patched_name_to_a_plain_function_changes_no_output(tmp_path, capsys, monkeypatch):
    (tmp_path / "plain").mkdir()
    (tmp_path / "wrapped").mkdir()
    expected = traced_paths(tmp_path / "plain", capsys)
    for name, attr in patched_names() + INSTALLED_BESIDE:
        monkeypatch.setattr(module(name), attr, plain(getattr(module(name), attr)))
    assert not isinstance(module("risk").RiskScenario, type)
    assert traced_paths(tmp_path / "wrapped", capsys) == expected
    assert all(code == 0 for code, _, _ in expected["commands"])
