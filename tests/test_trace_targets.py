"""Every function the benchmark tracer wraps must exist under its listed name.

``perfbench/tracer.py`` names its span targets as (module, attribute path)
strings.  A rename in ``src/`` would otherwise only surface when someone
runs ``perfbench/run.py --trace 1``.  The tracer module is loaded by path
and its targets are resolved the way ``install()`` resolves them, through
``owner.__dict__[attr]``, without wrapping anything.  Those lookups import
each module by name, so ``install()`` itself is also run, once, in a fresh
interpreter: it finds the modules in ``sys.modules`` after ``import
akstar.cli`` and fails if that import stops loading one of them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from _configs import fresh_interpreter

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("akstar_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name,module,path", TARGETS, ids=[f"{m}:{p}" for _, m, p in TARGETS])
def test_trace_target_resolves(name, module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert attr in owner.__dict__, f"{name}: {module} has no {path}"
        owner = owner.__dict__[attr]
    assert callable(owner), f"{name}: {module}.{path} is not callable"


_INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("akstar_perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(type(module.install()).__name__)
"""


def test_install_returns_in_a_fresh_interpreter():
    # install() looks each target module up in sys.modules after importing
    # akstar.cli, so a module that import no longer loads fails only here
    proc = fresh_interpreter("-c", _INSTALL, str(TRACER))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Tracer\n"
