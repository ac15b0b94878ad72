"""Every function the benchmark tracer wraps must exist under its listed name.

``perfbench/tracer.py`` names its span targets as (module, attribute path)
strings.  A rename in ``src/`` would otherwise only surface when someone
runs ``perfbench/run.py --trace 1``.  The tracer module is loaded by path
and its targets are resolved the way ``install()`` resolves them, through
``owner.__dict__[attr]``, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
