"""The pure-Python log-gamma and sign rule return the same bits as ``scipy.special``.

scipy is a test dependency only: it is the oracle that the Cephes port in
:mod:`akstar.expr` must match exactly (``==``, not ``approx``), because the
fractional recursion's term counts can turn on the last bit of a Gamma
ratio.  The comparison runs on seeded dense grids and on every argument the
engine reaches for the fractional golden configs and the benchmark's
fractional sweep.
"""

import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import akstar.expr
from akstar.cli import main
from akstar.expr import _gamma_sign, _lgamma, power_rule_factor

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("akstar_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _off_poles(xs):
    return [float(x) for x in xs if not (x <= 0.0 and x == math.floor(x))]


def _same_bits(port, oracle, xs):
    pairs = zip(xs, map(port, xs), oracle(np.array(xs)).tolist())
    return [(x, got, want) for x, got, want in pairs if got != want]


# -- seeded dense grids ----------------------------------------------------


def _lgamma_grid():
    rng = np.random.default_rng(20260415)
    pieces = [
        rng.uniform(-60.0, 200.0, 20000),        # reflection, recurrence, Stirling < 1000
        rng.uniform(-5.0, 15.0, 5000),           # around the [2, 3) fit and the 13 switch
        rng.uniform(-1e6, -34.0, 2000),          # reflection of a large argument
        rng.uniform(1e3, 1e8, 2000),             # short Stirling correction
        rng.uniform(1e8, 1e12, 500),             # bare Stirling
        [-34.5, -34.0 - 1e-9, 1.0, 2.0, 3.0, 13.0, 999.9, 1000.0, 1e8, 1e8 + 2.0],
        [2.556348e305, 3e305, 1e308],            # overflow to inf
        [0.0, -1.0, -3.0, -34.0, -40.0],          # poles: inf
    ]
    return [float(x) for x in np.concatenate(pieces)]


def test_lgamma_equals_gammaln_on_dense_grid():
    assert _same_bits(_lgamma, special.gammaln, _lgamma_grid()) == []


def test_gamma_sign_equals_gammasgn_on_dense_grid():
    rng = np.random.default_rng(20260416)
    xs = _off_poles(np.concatenate([rng.uniform(-50.0, 50.0, 20000), rng.uniform(-1e6, 1e6, 2000)]))
    assert _same_bits(_gamma_sign, special.gammasgn, xs) == []


# -- the sign rule against a hand-written table ----------------------------

# sign of Gamma(x) on each open interval of (-4, 4) between poles
SIGN_TABLE = (
    (-4.0, -3.0, 1.0),
    (-3.0, -2.0, -1.0),
    (-2.0, -1.0, 1.0),
    (-1.0, 0.0, -1.0),
    (0.0, 4.0, 1.0),
)


@pytest.mark.parametrize("lo,hi,sign", SIGN_TABLE, ids=[f"({lo:g},{hi:g})" for lo, hi, _ in SIGN_TABLE])
def test_gamma_sign_table(lo, hi, sign):
    points = [lo + 1e-9, lo + 0.25 * (hi - lo), 0.5 * (lo + hi), hi - 0.25 * (hi - lo), hi - 1e-9]
    assert [_gamma_sign(x) for x in points] == [sign] * len(points)


# -- every argument the engine reaches -------------------------------------


def _reached_configs():
    out = []
    for config in sorted(GOLDEN.glob("*.config.json")):
        raw = json.loads(config.read_text())
        if raw["alpha"] < 1.0:
            out.append(raw)
    workloads = _workloads()
    out.extend(inv.config for inv in workloads.invocations("frac_sweep", 7))
    return out


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The arguments of every log-gamma and sign call of those runs."""
    args = {"lgamma": set(), "sign": set()}

    def recorder(kind, fn):
        def wrapped(x):
            args[kind].add(x)
            return fn(x)

        return wrapped

    config = tmp_path_factory.mktemp("gamma") / "config.json"
    power_rule_factor.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(akstar.expr, "_lgamma", recorder("lgamma", _lgamma))
        mp.setattr(akstar.expr, "_gamma_sign", recorder("sign", _gamma_sign))
        for raw in _reached_configs():
            config.write_text(json.dumps(raw))
            main(["run", "--config", str(config)], stream=io.StringIO())
    power_rule_factor.cache_clear()
    return {kind: sorted(xs) for kind, xs in args.items()}


def test_reached_arguments_were_recorded(reached):
    # the fractional sweep alone reaches about 180 log-gamma arguments
    assert len(reached["lgamma"]) > 150
    assert reached["sign"] == reached["lgamma"]


def test_reached_lgamma_equals_gammaln(reached):
    assert _same_bits(_lgamma, special.gammaln, reached["lgamma"]) == []


def test_reached_gamma_sign_equals_gammasgn(reached):
    assert _same_bits(_gamma_sign, special.gammasgn, reached["sign"]) == []
