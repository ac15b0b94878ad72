"""The leaf diff of ``tools/same_outputs.py``, loaded by path."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("akstar_same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = _tool()


def test_moved_leaves_names_each_leaf_by_json_pointer():
    old = {"checks": [{"name": "a", "value": 0.0}, {"name": "b", "value": 1.0}], "a/b~": 1}
    new = {"checks": [{"name": "a", "value": 1e-16}, {"name": "b", "value": 1.0}], "a/b~": 1.0}
    assert same_outputs.moved_leaves(old, new) == [
        ("/checks/0/value", 0.0, 1e-16),
        ("/a~1b~0", 1, 1.0),
    ]
    assert same_outputs.moved_leaves(old, json.loads(json.dumps(old))) == []


def test_moved_leaves_marks_a_missing_side_absent():
    absent = same_outputs.ABSENT
    moved = same_outputs.moved_leaves({"x": [1], "y": None}, {"x": [1, 2], "z": 3})
    assert moved == [("/x/1", absent, 2), ("/y", None, absent), ("/z", absent, 3)]
    assert same_outputs.moved_leaves([1], {"0": 1}) == [("", [1], {"0": 1})]


def test_describe_moves_caps_the_lines_and_skips_non_json():
    old = json.dumps({"r": list(range(5))}).encode()
    new = json.dumps({"r": [v + 1 for v in range(5)]}).encode()
    assert same_outputs.describe_moves(old, new, cap=2) == [
        "    /r/0: 0 -> 1",
        "    /r/1: 1 -> 2",
        "    ... and 3 more moved leaves",
    ]
    assert same_outputs.describe_moves(b"{}", b'{"k": null}') == ["    /k: (absent) -> null"]
    assert same_outputs.describe_moves(b"a 1\n", b"a 2\n") == []
    assert same_outputs.describe_moves(b"\xff", b"{}") == []
