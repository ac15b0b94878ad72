"""The engine imports nothing beyond the standard library and itself.

``[project].dependencies`` is empty, so every module under ``src/akstar``
is parsed and each ``import`` and ``from ... import`` anywhere in it (at
module level or inside a function) must name ``akstar``, a relative
module, or a top-level module in ``sys.stdlib_module_names``.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "akstar").rglob("*.py"))


def foreign_imports(source: str) -> list:
    """Top-level names of every import in ``source`` outside stdlib and akstar."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.partition(".")[0] for name in names)
    return [t for t in tops if t != "akstar" and t not in sys.stdlib_module_names]


def test_guard_sees_imports_inside_functions():
    source = "import math\nfrom . import expr\ndef f():\n    import numpy.random\n    from scipy import special\n"
    assert foreign_imports(source) == ["numpy", "scipy"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_stdlib_and_akstar(path):
    assert foreign_imports(path.read_text()) == []


def test_project_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
