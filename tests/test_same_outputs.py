"""The invocation list and the leaf diff of ``tools/same_outputs.py``, loaded by path."""

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


def _full_run(tmp_path, name, n, order):
    """The Lagrangian of the one full strict ``run`` labelled ``name``."""
    invs = same_outputs.invocations(TOOL.parent.parent, tmp_path)
    runs = [(cmd, json.loads(p.read_text())) for label, cmd, p in invs if label == f"{name}: run"]
    assert len(runs) == 1
    command, config = runs[0]
    assert command == ("run",)
    assert (config["mode"], config["n"], config["alpha"]) == ("strict", n, 1.0)
    assert config["truncation_order"] == order
    assert all(len(term["exp"]) == 2 * n for term in config["lagrangian"])
    return config["lagrangian"]


def test_invocations_include_the_full_n3_run_in_strict_mode(tmp_path):
    assert _full_run(tmp_path, "n3 full", 3, 3) == same_outputs.N3


def test_invocations_include_the_full_n4_run_in_strict_mode(tmp_path):
    assert _full_run(tmp_path, "n4 full", 4, 3) == same_outputs.N4


def test_invocations_include_the_strict_w4_run_at_k5(tmp_path):
    # K = 5 solves r through Deg K + 2 = 7, the deepest recursion at n > 1
    w4 = same_outputs._workloads(TOOL.parent.parent).W4
    assert _full_run(tmp_path, "w4 K5", 2, 5) == w4


def test_round_off_only_uses_the_golden_tolerance():
    def dump(value):
        return json.dumps({"checks": [{"status": "pass", "value": value}], "n": 3}).encode()

    assert same_outputs.round_off_only(dump(1.76e-15), dump(1.11e-15))
    assert same_outputs.round_off_only(dump(-0.003472222222222222), dump(-0.0034722222222222225))
    # the bound is relative above |old| = 1
    assert same_outputs.round_off_only(dump(5000.0), dump(5000.0 + 4e-9))
    assert not same_outputs.round_off_only(dump(5000.0), dump(5000.0 + 6e-9))
    assert not same_outputs.round_off_only(dump(0.0), dump(2e-12))
    # only float leaves count: an int, a string or a missing leaf is not round-off
    assert not same_outputs.round_off_only(dump(1), dump(1.0))
    assert not same_outputs.round_off_only(dump(0.0), dump(0.0).replace(b"pass", b"fail"))
    assert not same_outputs.round_off_only(dump(0.0), dump(0.0).replace(b', "n": 3', b""))
    # identical stdouts are never flagged
    assert not same_outputs.round_off_only(dump(0.5), dump(0.5))


def test_round_off_only_compares_text_renderings_number_by_number():
    old = b"  algebra_graded_jacobi  pass  value  4.441e-16  tol 1.0e-12\nx2y3 K 5\n"
    new = old.replace(b"4.441e-16", b"3.511e-16")
    assert same_outputs.text_moves(old, new) == [(0, 4.441e-16, 3.511e-16)]
    assert same_outputs.round_off_only(old, new)
    assert same_outputs.round_off_only(b"a -0.0035\n", b"a -0.0035000000000001\n")
    # other text, a moved count, a number beyond the bound or an extra
    # number is not round-off
    assert same_outputs.text_moves(old, new.replace(b"pass", b"fail")) is None
    assert not same_outputs.round_off_only(old, new.replace(b"pass", b"fail"))
    assert not same_outputs.round_off_only(b"Deg 7: 26\n", b"Deg 7: 28\n")
    assert not same_outputs.round_off_only(b"a 0.0\n", b"a 2e-12\n")
    assert not same_outputs.round_off_only(b"a 1e-16\n", b"a 1e-16 2\n")
    # identical text is never flagged
    assert same_outputs.text_moves(old, old) == []
    assert not same_outputs.round_off_only(old, old)


def test_stale_goldens_compare_run_and_star_reports_with_their_output(tmp_path):
    run_report = json.dumps({"checks": [{"value": 1e-16}], "status": {"exit_code": 0}}) + "\n"
    star_report = json.dumps({"coefficients": [], "order": 1}) + "\n"
    (tmp_path / "a.json").write_text(run_report)
    (tmp_path / "a.config.json").write_text("{}")
    (tmp_path / "b.json").write_text(star_report)
    (tmp_path / "b.config.json").write_text("{}")
    labels = [f"golden {name}: {command}" for name in "ab" for command in ("run", "star --order 1")]
    invs = [(label, (), tmp_path / "unused") for label in labels]

    def results(a_run, b_star):
        outs = [a_run, "other", "other", b_star]
        return [(out.encode(), b"", 0) for out in outs]

    assert same_outputs.stale_goldens(tmp_path, invs, results(run_report, star_report)) == []
    moved = run_report.replace("1e-16", "0.0")
    assert same_outputs.stale_goldens(tmp_path, invs, results(moved, star_report)) == [
        ("a", ["    /checks/0/value: 1e-16 -> 0.0"]),
    ]
    # bytes decide: the same JSON written without its newline is stale too
    assert same_outputs.stale_goldens(tmp_path, invs, results(run_report, star_report[:-1])) == [
        ("b", []),
    ]
