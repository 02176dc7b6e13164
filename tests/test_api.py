"""The public surface: every exported name resolves, and nothing is exported twice.

Each public name is declared once, in the ``__all__`` of the library
module that defines it, and ``shrinklogit/__init__.py`` republishes those
lists by star import. These tests check that the package exports exactly
the union of the library modules' lists, that every entry resolves, and
that a star import binds nothing else. Later tests check that every error
a public docstring says is raised still exists, that every dataclass
holding arrays compares by identity, and that each rule of the package
is named in its one home.
"""

import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import shrinklogit
from shrinklogit import errors

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(shrinklogit.__path__))

#: The command line is the program, not the library, and is not republished.
LIBRARY_MODULES = [name for name in SUBMODULES if name != "cli"]


def test_package_exports_exactly_the_library_modules_all():
    declared = [
        entry for name in LIBRARY_MODULES for entry in importlib.import_module(f"shrinklogit.{name}").__all__
    ]
    assert sorted(shrinklogit.__all__) == sorted(declared)


def test_package_names_resolve_once():
    assert len(shrinklogit.__all__) == len(set(shrinklogit.__all__))
    missing = [name for name in shrinklogit.__all__ if not hasattr(shrinklogit, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve_once(name):
    module = importlib.import_module(f"shrinklogit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from shrinklogit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(shrinklogit.__all__)


def test_every_error_type_is_exported():
    defined = [
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.ShrinkLogitError)
    ]
    assert defined
    assert sorted(set(defined) - set(shrinklogit.__all__)) == []


def _public_callables():
    """Every exported function and class, and the members of exported classes."""
    objects = [getattr(shrinklogit, name) for name in shrinklogit.__all__]
    for module_name in SUBMODULES:
        module = importlib.import_module(f"shrinklogit.{module_name}")
        objects += [getattr(module, name) for name in getattr(module, "__all__", [])]
    for obj in objects:
        yield obj
        if inspect.isclass(obj):
            # Static and class methods hold their function in __func__.
            yield from (getattr(member, "__func__", member) for member in vars(obj).values())


def test_documented_errors_exist():
    """Every error a public numpydoc ``Raises`` section names exists, so a
    deleted error cannot stay documented."""
    docs = {
        obj.__qualname__: inspect.getdoc(obj)
        for obj in _public_callables()
        if callable(obj) and obj.__doc__
    }
    # A section runs from its underlined heading to the next heading.
    section_text = re.compile(r"^Raises\n-+\n(.*?)(?:\n(?=\S[^\n]*\n-+\n)|\Z)", re.S | re.M)
    sections = [
        (name, re.findall(r"^(\w+)$", section, re.M))
        for name, doc in docs.items()
        for section in section_text.findall(doc)
    ]
    assert sections and all(raised for _, raised in sections)
    unknown = [
        (name, error)
        for name, raised in sections
        for error in raised
        if not hasattr(errors, error) and not hasattr(builtins, error)
    ]
    assert unknown == []


def _array_dataclasses():
    for module_name in SUBMODULES:
        module = importlib.import_module(f"shrinklogit.{module_name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
                and any("NDArray" in str(f.type) for f in dataclasses.fields(obj))
            ):
                yield obj


def test_array_dataclasses_compare_by_identity():
    """A generated __eq__ would compare array fields as tuples, and numpy
    refuses the truth value of an elementwise comparison."""
    classes = list(_array_dataclasses())
    assert {"LinearRestriction", "RiskScenario", "RiskReport"} <= {cls.__qualname__ for cls in classes}
    assert [cls.__qualname__ for cls in classes if "__eq__" in vars(cls)] == []


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: shrinklogit.LinearRestriction([[1.0, 0.0]], [1.0]), id="LinearRestriction"),
        pytest.param(lambda: shrinklogit.RiskScenario(np.eye(2), np.zeros(2)), id="RiskScenario"),
        pytest.param(
            lambda: shrinklogit.risk(
                shrinklogit.RiskScenario(np.eye(2), np.ones(2)), shrinklogit.EstimatorSpec("aule", 0.5)
            ),
            id="RiskReport",
        ),
    ],
)
def test_equality_is_a_bool(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert len({a, b, a}) == 2


def _names(module_name):
    """Every identifier a module's code uses, imports or defines."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"shrinklogit.{module_name}")))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


@pytest.mark.parametrize(
    "name, homes",
    [
        # the rank cut of every zero test lives in linalg._kept
        ("RANK_CUT", {"linalg"}),
        # C's definiteness is tested at the door estimators._information
        ("require_positive_definite", {"linalg", "estimators"}),
        # only lambda_max_ratio raises NotPSDError; no dominance check does
        ("_require_psd", {"linalg"}),
        # the dominance checks keep their state in dominance, not on the scenario
        ("_records", {"dominance"}),
        # a request's restriction half is checked at the array doors' one door,
        # estimators._information, and at the scenario door, risk._check_scenario
        ("_check_restriction", {"estimators", "risk"}),
        # dominance and scenarios check their requests through the scenario door
        ("_check_request", {"cli", "estimators", "risk", "simulation"}),
        ("_check_scenario", {"dominance", "risk", "scenarios"}),
        ("_parts", set()),
    ],
)
def test_each_rule_is_named_only_in_its_home(name, homes):
    assert {module for module in SUBMODULES if name in set(_names(module))} == homes


def test_no_library_module_builds_an_estimator_spec():
    """An EstimatorSpec is built only by callers of the ``risk`` and
    ``estimate`` doors: the library checks a request with ``_check_request``
    and carries kinds and d as plain values, so no row re-runs the check."""
    calls = [
        (module_name, node.lineno)
        for module_name in LIBRARY_MODULES
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(f"shrinklogit.{module_name}"))))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "EstimatorSpec"
    ]
    assert calls == []


def test_only_simulation_map_imports_the_process_pool():
    """One home for the process pool: ``run_simulation`` and ``table_suite``
    map their blocks through ``simulation._map``, a context manager whose lazy
    map runs on one process or on one pool, open until its block ends; it is
    the only function of the package that imports ``concurrent.futures``."""
    homes = []
    for module_name in SUBMODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"shrinklogit.{module_name}")))
        # ast.walk is breadth first, so a nested function's nodes end up mapped to it
        scope = {
            child: function.name
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "concurrent" for name in imported):
                homes.append(f"{module_name}.{scope.get(node, '<module>')}")
    assert homes == ["simulation._map"]


def test_cli_registers_flags_at_one_site():
    """``cli.build_parser`` registers every command's flags from one table,
    with the shared flags taken from their groups, so each refusal list,
    built from the same groups, names every flag it should."""
    tree = ast.parse(inspect.getsource(importlib.import_module("shrinklogit.cli")))
    scope = {
        child: function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for child in ast.walk(function)
    }
    sites = [
        f"cli.{scope.get(node, '<module>')}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
    ]
    assert sites == ["cli.build_parser"]
