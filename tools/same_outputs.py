"""Compare the command-line outputs of two checkouts byte for byte.

    python tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each invocation runs as ``python -m akstar.cli ...`` in a fresh interpreter
whose ``PYTHONPATH`` is the root's ``src``, so the two checkouts never share
a process.  The invocations are read from CHANGE_ROOT:

* every ``tests/golden/*.config.json`` under ``run``, ``run --format text``,
  ``check algebra|geometry|fedosov|caputo`` and ``star --order 1``;
* every invocation of every workload in ``perfbench/workloads.py`` at seed 7,
  that file loaded by path and only read.

The script prints each invocation whose stdout, stderr or exit code differs
between the roots and exits 1 if any differs, 0 otherwise.  When both
stdouts of a differing invocation parse as JSON, it also prints the leaves
that moved, as JSON pointers with ``old -> new``, at most ``MAX_MOVED`` per
invocation.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEED = 7
MAX_MOVED = 12
# stands in for the missing side of a key or index present on one side only
ABSENT = object()
GOLDEN_COMMANDS = (
    ("run",),
    ("run", "--format", "text"),
    ("check", "algebra"),
    ("check", "geometry"),
    ("check", "fedosov"),
    ("check", "caputo"),
    ("star", "--order", "1"),
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


def describe_moves(old_stdout: bytes, new_stdout: bytes, cap: int = MAX_MOVED) -> list:
    """Lines naming the moved leaves of two JSON stdouts; none unless both parse."""
    try:
        old, new = json.loads(old_stdout), json.loads(new_stdout)
    except ValueError:
        return []
    moved = moved_leaves(old, new)
    lines = [f"    {p or '(root)'}: {leaf_text(a)} -> {leaf_text(b)}" for p, a, b in moved[:cap]]
    if len(moved) > cap:
        lines.append(f"    ... and {len(moved) - cap} more moved leaves")
    return lines


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
    differing = 0
    for (label, _, _), old, new in zip(invs, before, after):
        streams = [s for s, a, b in zip(("stdout", "stderr", "exit code"), old, new) if a != b]
        if streams:
            differing += 1
            print(f"DIFFERS ({', '.join(streams)}): {label}")
            if "stdout" in streams:
                for line in describe_moves(old[0], new[0]):
                    print(line)
    print(f"{len(invs) - differing} of {len(invs)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
