"""The benchmark's invocations still match its stored reference summaries.

``perfbench/workloads.py`` lists every engine call of the benchmark and
``perfbench/verify.py`` compares an output with its summary in
``perfbench/reference/``.  Both modules are loaded by path and only read;
each invocation runs in-process through ``akstar.cli.main`` at the
reference seed, so a drift from the reference shows here and not only when
the benchmark runs.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from akstar.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"akstar_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
verify = _load("verify")

CASES = []
for _workload in workloads.WORKLOADS:
    _reference = json.loads((PERFBENCH / "reference" / f"{_workload}.json").read_text())
    for _inv in workloads.invocations(_workload, _reference["seed"]):
        CASES.append((_workload, _inv, _reference["invocations"][_inv.name]))


@pytest.mark.parametrize(
    "workload,inv,ref", CASES, ids=[f"{w}:{inv.name}" for w, inv, _ in CASES]
)
def test_invocation_matches_reference(tmp_path, workload, inv, ref):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(inv.config))
    out = io.StringIO()
    code = main([*inv.command, "--config", str(config)], stream=out)
    assert verify.compare(ref, code, out.getvalue()) == []
