"""The README's "Library use" example runs against the current API, and its
check table lists ``checks.CHECKS`` row for row."""

import contextlib
import io
import re
from pathlib import Path

from akstar.checks import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_use_block(), str(README), "exec"), {})
    # the block's comment promises C_1 = (0.5j): x*y - y*x = iv
    assert out.getvalue() == "<signomial (0+0.5j)>\n"


def test_check_table_matches_checks():
    # the fourth column says why a check reads exactly 0.0, and may be empty
    rows = re.findall(
        r"^\| `(\w+)` \| (\w+) \| (\S+) \| [^|]*\|$", README.read_text(encoding="utf-8"), re.M
    )
    table = [(name, tier, None if gate == "-" else float(gate)) for name, tier, gate in rows]
    assert table == [(name, tier, gate) for name, (tier, gate) in CHECKS.items()]
