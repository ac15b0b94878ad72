"""The line collector of ``tools/traffic_lines.py``, loaded by path, on one golden config."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "traffic_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("akstar_traffic_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traffic_lines = _tool()


def test_collector_separates_run_and_unrun_lines_of_a_golden_run():
    config = ROOT / "tests" / "golden" / "y4_a1.config.json"
    missed = traffic_lines.unreached(traffic_lines.collect([["run", "--config", str(config)]]))
    missed_wick = {line for line, _ in missed["wick.py"]}
    source = (traffic_lines.PACKAGE / "wick.py").read_text().splitlines()
    lines = traffic_lines.body_lines(traffic_lines.PACKAGE / "wick.py")

    def body(function):
        return {line for line, name in lines.items() if name == function}

    # body lines only: no def line, no docstring
    product = body("WickAlgebra.product")
    first_words = [source[line - 1].split()[0] for line in sorted(product)]
    assert first_words == ["out:", "self._add_pairs(out,", "return"]
    # a run takes every line of product and none of the twist checks' raises
    assert not product & missed_wick
    init = body("WickAlgebra.__init__")
    raises = {line for line in init if source[line - 1].lstrip().startswith("raise")}
    assert len(raises) == 3 and raises <= missed_wick
    assert init - missed_wick
    assert set(missed) == {path.name for path in traffic_lines.PACKAGE.glob("*.py")}
