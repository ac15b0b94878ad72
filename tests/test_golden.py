"""Golden reports: ``akstar run`` must keep reproducing the stored reports.

Each ``tests/golden/<name>.config.json`` sits next to the report
``<name>.json`` written from it by

    akstar run --config tests/golden/<name>.config.json --out tests/golden/<name>.json

Structure, strings, integers, exit codes and check statuses must match
exactly; a float may move by at most 1e-12 * max(1, |reference|).  Rewrite
a stored report only for a deliberate change of behaviour.
"""

import io
import json
from pathlib import Path

import pytest

from akstar.cli import main

GOLDEN = Path(__file__).parent / "golden"

# y^4 and coupled n = 2 classically, x^2 y^3 and x^2 y^2 fractionally, and
# x^2 y^2 at alpha = 0.6, which aborts at a Gamma pole with a partial report
NAMES = ("y4_a1", "coupled2_a1", "x2y3_a0.7", "x2y2_a0.45", "x2y2_a0.6")


def assert_matches(ref, got, where="report"):
    if isinstance(ref, float):
        assert type(got) is float, where
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), f"{where}: {got!r} != {ref!r}"
    elif isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), where
        for key in ref:
            assert_matches(ref[key], got[key], f"{where}/{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (r, g) in enumerate(zip(ref, got)):
            assert_matches(r, g, f"{where}/{i}")
    else:
        assert type(got) is type(ref) and got == ref, f"{where}: {got!r} != {ref!r}"


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name):
    ref = json.loads((GOLDEN / f"{name}.json").read_text())
    out = io.StringIO()
    code = main(["run", "--config", str(GOLDEN / f"{name}.config.json")], stream=out)
    assert code == ref["status"]["exit_code"]
    assert_matches(ref, json.loads(out.getvalue()))


def test_comparator_rejects_drift():
    ref = {"value": 1.0, "status": "pass", "terms": [2, 0.5]}
    assert_matches(ref, {"value": 1.0 + 1e-13, "status": "pass", "terms": [2, 0.5]})
    for bad in (
        {"value": 1.0 + 1e-11, "status": "pass", "terms": [2, 0.5]},
        {"value": 1.0, "status": "fail", "terms": [2, 0.5]},
        {"value": 1.0, "status": "pass", "terms": [2.0, 0.5]},
        {"value": 1.0, "status": "pass", "terms": [2]},
        {"value": 1.0, "status": "pass"},
    ):
        with pytest.raises(AssertionError):
            assert_matches(ref, bad)
