"""The demos run to completion against the public API.

``make_synthetic_dataset.py`` is left out: it rewrites the bundled CSV.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-4]_*.py"))


def test_all_four_demos_are_found():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
