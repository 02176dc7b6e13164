"""The public surface: every exported name resolves, and nothing is exported twice.

``shrinklogit/__init__.py`` keeps two parallel lists, its imports and its
``__all__``; these tests catch an entry left in one after a name is
removed from the other, or from the module that defined it.
"""

import importlib
import inspect
import pkgutil

import pytest

import shrinklogit
from shrinklogit import errors

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(shrinklogit.__path__))


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
