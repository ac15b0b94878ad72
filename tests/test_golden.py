"""Golden reports: ``akstar run`` and ``akstar star`` must keep reproducing
the stored reports.

Each ``tests/golden/<name>.config.json`` sits next to the report
``<name>.json`` written from it by

    akstar run --config tests/golden/<name>.config.json --out tests/golden/<name>.json

except the star reports (``STAR_NAMES``), written by

    akstar star --order 1 --config tests/golden/<name>.config.json > tests/golden/<name>.json

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

# y^4, coupled n = 2 and x^2 y^3 classically (x^2 y^3 is the one with a
# non-zero r, so its D-hat^2 probes, flat-section and star checks are not
# 0 = 0), x^2 y^3 and x^2 y^2 fractionally, and x^2 y^2 at alpha = 0.6,
# which aborts at a Gamma pole in the recursion stage and keeps the
# geometry section and the checks finished before it; y4_a1_strict is
# y4_a1 in strict mode, so every gated check must pass for exit 0;
# y2p5_a0.3 is the one fractional n = 1 run with a non-integer input
# exponent, whose recursion term counts move with last-bit changes of the
# kernel; w4p_a0.45 (x1^2 x2 y1^2.7 + x1 x2 y2^2.7, strict, K = 2) is the
# one fractional n = 2 run with non-zero Omega, torsion, curvature and r,
# so its r o r convolution and tau lifts are not 0 = 0 below alpha = 1;
# w4_a1 (W4, strict, K = 3) is the full classical run with non-zero Omega,
# torsion and curvature, so its D-hat^2 probes and delta-curvature
# identity are not 0 = 0
NAMES = (
    "y4_a1", "y4_a1_strict", "coupled2_a1", "x2y3_a1", "x2y3_a0.7", "x2y2_a0.45", "x2y2_a0.6",
    "y2p5_a0.3", "w4p_a0.45", "w4_a1",
)
# W4 (n = 2, non-zero T, R and Omega, so r and the contractions are non-trivial)
STAR_NAMES = ("w4_star_o1",)


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


@pytest.mark.parametrize("name", STAR_NAMES)
def test_golden_star(name):
    ref = json.loads((GOLDEN / f"{name}.json").read_text())
    out = io.StringIO()
    code = main(["star", "--order", "1", "--config", str(GOLDEN / f"{name}.config.json")], stream=out)
    assert code == 0
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
