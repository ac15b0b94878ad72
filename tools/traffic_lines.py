"""Print the function-body lines of ``src/akstar`` that the benchmark traffic never runs.

    python tools/traffic_lines.py

Every invocation of every workload in ``perfbench/workloads.py`` at seed 7
(that file loaded by path and only read, by ``tools/same_outputs.py``'s
loader) runs in this process through ``akstar.cli.main``, under
``sys.settrace``.
For each module of the engine the script then prints the lines of function
bodies that no invocation ran, as ``path:line  function  source``.  A line
counts as run when the tracer sees a ``line`` event on it; a function's
``def`` line and docstring hold no instruction of its body and are never
listed.  The engine is the ``src`` of the checkout that holds this script.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
import types
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path[:0] = [str(ROOT / "src"), str(TOOLS)]

import akstar  # noqa: E402
from akstar import cli  # noqa: E402
from same_outputs import SEED, _workloads  # noqa: E402

PACKAGE = Path(akstar.__file__).resolve().parent
# code objects that run in the scope that makes them, at import time for a
# module or class body
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def body_lines(path: Path) -> dict:
    """{line: qualified function name} for each line of ``path`` that holds
    an instruction of a function body."""
    out = {}

    def walk(code, in_function):
        inside = in_function or (
            bool(code.co_flags & inspect.CO_NEWLOCALS) and code.co_name not in COMPREHENSIONS
        )
        if inside:
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    out.setdefault(line, code.co_qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, inside)

    walk(compile(path.read_text(), str(path), "exec"), False)
    return out


def collect(argvs) -> dict:
    """{module file name: lines run} over the engine's frames while
    ``akstar.cli.main`` runs each argument list of ``argvs``, its stdout
    and stderr discarded."""
    reached = {path.name: set() for path in PACKAGE.glob("*.py")}
    # co_filename -> the line set of its module, or None outside the engine
    files: dict = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = reached.get(path.name) if path.parent == PACKAGE else None
        lines = files[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    for argv in argvs:
        with contextlib.redirect_stderr(io.StringIO()):
            sys.settrace(on_call)
            try:
                cli.main(list(argv), stream=io.StringIO())
            finally:
                sys.settrace(previous)
    return reached


def unreached(reached: dict) -> dict:
    """{module file name: [(line, function)]} of the function-body lines
    ``collect`` did not see run, in line order."""
    out = {}
    for name in sorted(reached):
        lines = body_lines(PACKAGE / name)
        out[name] = [(line, lines[line]) for line in sorted(lines) if line not in reached[name]]
    return out


def workload_argvs(work: Path) -> list:
    """The ``akstar`` arguments of every workload invocation at ``SEED``,
    its config written under ``work``."""
    workloads = _workloads(ROOT)
    argvs = []
    for workload in workloads.WORKLOADS:
        for inv in workloads.invocations(workload, SEED):
            path = work / f"{workload}.{inv.name}.config.json"
            path.write_text(json.dumps(inv.config))
            argvs.append([*inv.command, "--config", str(path)])
    return argvs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        argvs = workload_argvs(Path(tmp))
        missed = unreached(collect(argvs))
    total = 0
    for name, lines in missed.items():
        source = (PACKAGE / name).read_text().splitlines()
        for line, function in lines:
            print(f"src/akstar/{name}:{line}  {function}  {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} function-body lines not run by the {len(argvs)} invocations at seed {SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
