"""The names the traced benchmark rebinds still exist.

``perfbench/layers.py`` lists in ``PATCHES`` each (module, attribute) that
``run.py --trace 1`` rebinds to a traced wrapper, and ``layers.install``
raises AttributeError for one that is gone. Some of them, such as
``dominance.moore_penrose``, are no longer called by their module and are
kept bound only for this. The list is read from the source, not imported,
so the test needs nothing from the benchmark's own path.
"""

import ast
import importlib
from pathlib import Path

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
