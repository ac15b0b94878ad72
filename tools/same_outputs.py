"""Compare the command-line outputs of two checkouts byte for byte.

    python tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each invocation runs as ``python -m akstar.cli ...`` in a fresh interpreter
whose ``PYTHONPATH`` is the root's ``src``, so the two checkouts never share
a process.  The invocations are read from CHANGE_ROOT:

* every ``tests/golden/*.config.json`` under ``run``, ``run --format text``,
  ``check algebra|geometry|fedosov|caputo``, ``star --order 1`` and
  ``star --order 2``.  The star of order p lifts through Deg 2p - 1 and
  reads r only that deep, so ``--order 1`` reads no r at all (its tau_1 is
  ``delta_inv`` of D-check f) and ``--order 2`` reads r through Deg 3;
* every invocation of every workload in ``perfbench/workloads.py`` at seed 7,
  that file loaded by path and only read;
* the full strict ``run`` of ``N3`` and of ``N4`` below (n = 3 and 4,
  K = 3), the only invocations at n = 3 and n = 4;
* the full strict ``run`` of that file's ``W4`` Lagrangian at K = 5, which
  solves r through Deg 7, the deepest recursion at n > 1, and lifts for
  the star of order 3.  Its Wick products make 42,643 contributions that
  contract r >= 3 times, where those of ``w4_star`` make none, and 40,302
  that raise a twist entry to a power k >= 2, against ``w4_star``'s 153.
  At K = 4 the counts are 5,694 and 7,737.

The full strict ``run`` of ``W4`` at K = 3 is the golden ``w4_a1``.

The script prints each invocation whose stdout, stderr or exit code differs
between the roots and exits 1 if any differs, 0 otherwise.  When both
stdouts of a differing invocation parse as JSON, it also prints the leaves
that moved, as JSON pointers with ``old -> new``, at most ``MAX_MOVED`` per
invocation.  It flags an invocation ``round-off only`` when its stdout is
all that differs and every moved value is a float within the golden tests'
tolerance, ``ROUND_OFF * max(1, |old|)``, of its old value: the leaves of
two JSON stdouts, or the numbers of two text stdouts whose other text is
identical.

It then compares each stored golden report with CHANGE_ROOT's own output
for it, the ``run`` report, or ``star --order 1`` for a stored star
report, and prints ``STALE golden <name>`` with the moved leaves of each
one that differs.  Stale goldens do not change the exit code.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEED = 7
MAX_MOVED = 12
ROUND_OFF = 1e-12
# stands in for the missing side of a key or index present on one side only
ABSENT = object()
# a decimal number in a text rendering, sign and exponent included
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
# x1^2 x2 y1^3 + x1 x2 x3 y2^2 + x3 y3^2 over (x1, x2, x3, y1, y2, y3)
N3 = [
    {"c": 1, "exp": [2, 1, 0, 3, 0, 0]},
    {"c": 1, "exp": [1, 1, 1, 0, 2, 0]},
    {"c": 1, "exp": [0, 0, 1, 0, 0, 2]},
]
# x1^2 x2 y1^3 + x1 x2 x3 y2^2 + x3 x4 y3^2 + x4 y4^2 over (x1, ..., x4, y1, ..., y4)
N4 = [
    {"c": 1, "exp": [2, 1, 0, 0, 3, 0, 0, 0]},
    {"c": 1, "exp": [1, 1, 1, 0, 0, 2, 0, 0]},
    {"c": 1, "exp": [0, 0, 1, 1, 0, 0, 2, 0]},
    {"c": 1, "exp": [0, 0, 0, 1, 0, 0, 0, 2]},
]
GOLDEN_COMMANDS = (
    ("run",),
    ("run", "--format", "text"),
    ("check", "algebra"),
    ("check", "geometry"),
    ("check", "fedosov"),
    ("check", "caputo"),
    ("star", "--order", "1"),
    ("star", "--order", "2"),
)


def _workloads(root: Path):
    spec = importlib.util.spec_from_file_location(
        "akstar_perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def invocations(root: Path, work: Path) -> list:
    """(label, command, config path) for every invocation, configs written under ``work``."""
    out = []
    for config in sorted((root / "tests" / "golden").glob("*.config.json")):
        name = config.name[: -len(".config.json")]
        for command in GOLDEN_COMMANDS:
            out.append((f"golden {name}: {' '.join(command)}", command, config))
    workloads = _workloads(root)
    for workload in workloads.WORKLOADS:
        for inv in workloads.invocations(workload, SEED):
            path = work / f"{workload}.{inv.name}.config.json"
            path.write_text(json.dumps(inv.config))
            out.append((f"{workload} {inv.name}: {' '.join(inv.command)}", inv.command, path))
    for name, n, lagrangian, order in (("n3 full", 3, N3, 3), ("n4 full", 4, N4, 3),
                                       ("w4 K5", 2, workloads.W4, 5)):
        config = dict(workloads._config(1.0, n, lagrangian, order, SEED), mode="strict")
        path = work / f"{name.replace(' ', '_')}_run.config.json"
        path.write_text(json.dumps(config))
        out.append((f"{name}: run", ("run",), path))
    return out


def run_all(root: Path, invs: list, cwd: Path) -> list:
    """(stdout, stderr, exit code) of each invocation under ``root``'s engine."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    results = []
    for _, command, config in invs:
        proc = subprocess.run(
            [sys.executable, "-m", "akstar.cli", *command, "--config", str(config)],
            capture_output=True, env=env, cwd=cwd,
        )
        results.append((proc.stdout, proc.stderr, proc.returncode))
    return results


def moved_leaves(old, new, pointer: str = "") -> list:
    """(JSON pointer, old, new) for each leaf where two JSON values differ.

    Objects are matched by key and arrays by index; a side that lacks the
    key or index reads ``ABSENT`` there.  Leaves compare by their JSON text,
    so 1 and 1.0 differ as they do in the bytes.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        parts = [(k.replace("~", "~0").replace("/", "~1"), old.get(k, ABSENT), new.get(k, ABSENT))
                 for k in keys]
    elif isinstance(old, list) and isinstance(new, list):
        size = max(len(old), len(new))
        parts = [(i, old[i] if i < len(old) else ABSENT, new[i] if i < len(new) else ABSENT)
                 for i in range(size)]
    else:
        return [] if leaf_text(old) == leaf_text(new) else [(pointer, old, new)]
    out = []
    for key, a, b in parts:
        out.extend(moved_leaves(a, b, f"{pointer}/{key}"))
    return out


def leaf_text(value) -> str:
    return "(absent)" if value is ABSENT else json.dumps(value)


def json_moves(old_stdout: bytes, new_stdout: bytes):
    """``moved_leaves`` of two JSON stdouts, or None unless both parse."""
    try:
        return moved_leaves(json.loads(old_stdout), json.loads(new_stdout))
    except ValueError:
        return None


def describe_moves(old_stdout: bytes, new_stdout: bytes, cap: int = MAX_MOVED) -> list:
    """Lines naming the moved leaves of two JSON stdouts; none unless both parse."""
    moved = json_moves(old_stdout, new_stdout) or []
    lines = [f"    {p or '(root)'}: {leaf_text(a)} -> {leaf_text(b)}" for p, a, b in moved[:cap]]
    if len(moved) > cap:
        lines.append(f"    ... and {len(moved) - cap} more moved leaves")
    return lines


def text_moves(old_stdout: bytes, new_stdout: bytes):
    """(index, old, new) for each number that differs between two text
    stdouts, as floats; None unless the text between the numbers is identical."""
    old_parts, new_parts = NUMBER.split(old_stdout), NUMBER.split(new_stdout)
    # split puts the text at even and the numbers at odd positions
    if old_parts[::2] != new_parts[::2]:
        return None
    pairs = zip(old_parts[1::2], new_parts[1::2])
    return [(i, float(a), float(b)) for i, (a, b) in enumerate(pairs) if a != b]


def round_off_only(old_stdout: bytes, new_stdout: bytes) -> bool:
    """Whether two stdouts differ, and only in float values that moved by at
    most ``ROUND_OFF * max(1, |old|)``: the leaves of two JSON stdouts, else
    the numbers of two text stdouts that agree everywhere else."""
    moved = json_moves(old_stdout, new_stdout)
    if moved is None:
        moved = text_moves(old_stdout, new_stdout)
    return bool(moved) and all(
        type(a) is float and type(b) is float and abs(b - a) <= ROUND_OFF * max(1.0, abs(a))
        for _, a, b in moved
    )


def stale_goldens(golden: Path, invs: list, results: list) -> list:
    """(name, ``describe_moves`` lines) for each stored report in ``golden``
    that differs from its output in ``results``, the outputs of ``invs``:
    a report with a ``status`` is a ``run`` report, any other a star report."""
    stdouts = {label: out for (label, _, _), (out, _, _) in zip(invs, results)}
    stale = []
    for path in sorted(golden.glob("*.json")):
        name = path.name[: -len(".json")]
        if name.endswith(".config"):
            continue
        stored = path.read_bytes()
        command = "run" if "status" in json.loads(stored) else "star --order 1"
        output = stdouts[f"golden {name}: {command}"]
        if output != stored:
            stale.append((name, describe_moves(stored, output)))
    return stale


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        invs = invocations(change, work)
        with ThreadPoolExecutor(max_workers=2) as pool:
            before, after = pool.map(lambda root: run_all(root, invs, work), (parent, change))
    differing = round_off = 0
    for (label, _, _), old, new in zip(invs, before, after):
        streams = [s for s, a, b in zip(("stdout", "stderr", "exit code"), old, new) if a != b]
        if streams:
            differing += 1
            if streams == ["stdout"] and round_off_only(old[0], new[0]):
                round_off += 1
                streams.append("round-off only")
            print(f"DIFFERS ({', '.join(streams)}): {label}")
            if "stdout" in streams:
                for line in describe_moves(old[0], new[0]):
                    print(line)
    print(f"{len(invs) - differing} of {len(invs)} invocations identical, "
          f"{round_off} of the {differing} that differ by round-off only")
    for name, lines in stale_goldens(change / "tests" / "golden", invs, after):
        print(f"STALE golden {name}")
        for line in lines:
            print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
