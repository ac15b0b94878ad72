"""The engine imports nothing beyond the standard library and itself,
and its start-up path leaves out ``dataclasses`` and ``inspect``.

``[project].dependencies`` is empty, so every module under ``src/akstar``
is parsed and each ``import`` and ``from ... import`` anywhere in it (at
module level or inside a function) must name ``akstar``, a relative
module, or a top-level module in ``sys.stdlib_module_names``.

Every ``akstar`` command is a fresh interpreter, so what ``import
akstar.cli`` loads is paid on every launch.  ``dataclasses`` imports
``inspect``, which imports ``ast``, ``dis`` and ``tokenize``: 9-14 ms
per launch under ``python -X importtime`` on a 2-vCPU VM (Python 3.11),
before each ``@dataclass`` spends about 1-1.5 ms building its methods from
generated source.  The engine's records are ``typing.NamedTuple`` or
``__slots__`` classes instead, and a fresh interpreter checks that the
import adds neither module to what a bare interpreter already holds
(``site`` may preload modules).
"""

import ast
import os
import subprocess
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


def _modules_after(statement: str) -> set:
    """Names in ``sys.modules`` of a fresh interpreter after ``statement``."""
    code = statement + "\nimport sys\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    added = _modules_after("import akstar.cli") - _modules_after("pass")
    assert "akstar.cli" in added
    assert not {"dataclasses", "inspect"} & added
