"""Configuration validation, pipeline orchestration, report contracts."""

import io
import json
from pathlib import Path

import pytest

from akstar.checks import CHECKS
from akstar.cli import (
    CHECK_STAGES,
    EXIT_CHECK_FAILED,
    EXIT_COMPUTE_ERROR,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    STAGES,
    STAR_STAGES,
    Pipeline,
    main,
    parse_config_dict,
    run_pipeline,
)
from akstar.errors import ConfigError
from akstar.report import emit_json, emit_text

from _configs import fresh_interpreter

GOLDEN = Path(__file__).parent / "golden"


def flat_config(**over):
    cfg = {
        "alpha": 1.0,
        "n": 1,
        "lagrangian": [{"c": 1, "exp": [0, 2]}],
        "truncation_order": 4,
        "mode": "strict",
        "seed": 11,
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- parsing ------------------------------------------------------------------


def test_minimal_config_is_valid():
    spec = parse_config_dict({"alpha": 1.0, "n": 1, "lagrangian": [{"c": 1, "exp": [0, 2]}]})
    assert spec.truncation_order >= 2
    assert spec.mode == "strict"
    assert len(spec.sample_points) >= 1
    assert all(all(v > 0 for v in p) for p in spec.sample_points)


def test_alpha_out_of_range_rejected():
    with pytest.raises(ConfigError, match="/alpha"):
        parse_config_dict(flat_config(alpha=1.5))


def test_zero_sample_point_rejected():
    with pytest.raises(ConfigError, match="/sample_points/0/0"):
        parse_config_dict(flat_config(sample_points=[[0.0, 1.0]]))


def test_pointer_paths_in_errors(tmp_path, capsys):
    cases = [
        (dict(lagrangian=[{"c": 1, "exp": [1]}]), "/lagrangian/0/exp"),
        (dict(truncation_order=1), "/truncation_order"),
        (dict(mode="loose"), "/mode"),
        (dict(tolerances={"x": -1.0}), "/tolerances/x"),
        (dict(unknown=3), "/unknown"),
        # JSON true and false are not numbers; NaN and Infinity are not finite
        (dict(alpha=True), "/alpha"),
        (dict(n=True), "/n"),
        (dict(seed=False), "/seed"),
        (dict(lagrangian=[{"c": True, "exp": [0, 2]}]), "/lagrangian/0/c"),
        (dict(lagrangian=[{"c": 1, "exp": [False, 4]}]), "/lagrangian/0/exp"),
        (dict(sample_points=[[1.0, float("inf")]]), "/sample_points/0/1"),
        (dict(tolerances={"geometry_acp": float("nan")}), "/tolerances/geometry_acp"),
    ]
    for over, pointer in cases:
        cfg = flat_config(**over)
        with pytest.raises(ConfigError, match=pointer):
            parse_config_dict(cfg)
        # the same input as a file, with the NaN and Infinity tokens json.dumps writes
        path = write_config(tmp_path, cfg)
        out = io.StringIO()
        assert main(["run", "--config", path], stream=out) == EXIT_CONFIG_ERROR
        assert out.getvalue() == ""
        assert f"config error: {pointer}:" in capsys.readouterr().err


def test_unknown_tolerance_name_rejected(tmp_path):
    # a misspelled check name would otherwise gate nothing, silently
    with pytest.raises(ConfigError, match="/tolerances/fedosov_r_residul"):
        parse_config_dict(flat_config(tolerances={"fedosov_r_residul": 1e-40}))
    with pytest.raises(ConfigError, match="/tolerances/fedosov_r_residual"):
        parse_config_dict(flat_config(tolerances={"fedosov_r_residual": -1.0}))
    path = write_config(tmp_path, flat_config(tolerances={"fedosov_r_residul": 1e-40}))
    assert main(["run", "--config", path], stream=io.StringIO()) == EXIT_CONFIG_ERROR


def test_check_names_match_emitted_checks():
    emitted = set()
    for cfg in (flat_config(mode="diagnostic"), flat_config(alpha=0.45, mode="diagnostic", truncation_order=3)):
        emitted |= {c["name"] for c in run_pipeline(parse_config_dict(cfg))["checks"]}
    assert emitted == set(CHECKS)


@pytest.mark.parametrize(
    "name,tier,alpha",
    [
        ("geometry_j_squared", "exact", 1.0),
        ("algebra_delta_squared", "algebra", 1.0),
        ("fedosov_r_residual", "classical", 1.0),
        ("chern_theta_d_omega", "info", 1.0),
        ("caputo_power_rule", "oracle", 0.45),
    ],
)
def test_config_tolerance_replaces_the_gate(name, tier, alpha):
    cfg = flat_config(alpha=alpha, truncation_order=3, tolerances={name: 0.25})
    rep = run_pipeline(parse_config_dict(cfg))
    (entry,) = [c for c in rep["checks"] if c["name"] == name]
    assert (entry["tier"], entry["threshold"]) == (tier, 0.25)
    assert CHECKS[name][1] != 0.25  # the tolerance, not the table, set the threshold


POLE_CONFIG = {
    "alpha": 0.45,
    "n": 1,
    "lagrangian": [{"c": 1, "exp": [0, 2]}],
    # d^2 of 1/x meets the Gamma(0) pole of the Caputo derivative of x^-1
    "observables": {"f": [{"c": 1, "exp": [-1, 0]}]},
    "tolerances": {"geometry_anholonomy": 1e-8},
}


def test_gated_check_at_a_pole_fails_in_strict_mode(tmp_path):
    path = write_config(tmp_path, dict(POLE_CONFIG, mode="strict"))
    assert main(["check", "geometry", "--config", path], stream=io.StringIO()) == EXIT_CHECK_FAILED
    rep = Pipeline(parse_config_dict(dict(POLE_CONFIG, mode="strict"))).run(CHECK_STAGES["geometry"])
    assert rep["status"]["failed"] == ["geometry_anholonomy"]
    (entry,) = [c for c in rep["checks"] if c["name"] == "geometry_anholonomy"]
    assert entry["value"] is None and entry["status"] == "fail"
    assert entry["note"].startswith("left the differentiable class: ")
    rep = Pipeline(parse_config_dict(dict(POLE_CONFIG, mode="diagnostic"))).run(
        CHECK_STAGES["geometry"]
    )
    assert rep["status"] == {"mode": "diagnostic", "exit_code": EXIT_OK, "failed": []}
    (entry,) = [c for c in rep["checks"] if c["name"] == "geometry_anholonomy"]
    assert entry["status"] == "flagged"


# -- pipeline ------------------------------------------------------------------


def test_flat_strict_run_passes():
    rep = run_pipeline(parse_config_dict(flat_config()))
    assert rep["status"]["exit_code"] == EXIT_OK
    assert rep["status"]["failed"] == []
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == len(set(names))  # each check appears exactly once
    assert rep["fedosov"]["r_residuals"]["1"] == 0.0
    assert all(rep["fedosov"]["r_term_counts"][d] == 0 for d in rep["fedosov"]["r_term_counts"])
    # default observables are the first base/fiber pair: C_1(x, y) = i/2
    c1 = rep["star"]["coefficients"][1]["terms"]
    assert c1 == [{"re": 0.0, "im": 0.5, "exp": [0.0, 0.0]}]


def test_fractional_diagnostic_run_completes():
    cfg = flat_config(alpha=0.45, mode="diagnostic", truncation_order=3)
    rep = run_pipeline(parse_config_dict(cfg))
    assert rep["status"]["exit_code"] == EXIT_OK
    assert any(c["status"] == "diagnostic" for c in rep["checks"])
    assert "caputo_power_rule" in [c["name"] for c in rep["checks"]]
    assert all(
        v is not None and v == v for v in rep["fedosov"]["r_residuals"].values()
    )


def test_fractional_strict_with_tight_tolerance_fails():
    # base-coupled fractional config: the frame-bracket defect is honestly
    # nonzero, so an explicit tolerance entry turns it into a failing gate
    cfg = flat_config(
        alpha=0.45,
        lagrangian=[{"c": 1, "exp": [2, 2]}],
        mode="strict",
        truncation_order=3,
        tolerances={"geometry_anholonomy": 1e-8},
    )
    rep = run_pipeline(parse_config_dict(cfg))
    assert rep["status"]["exit_code"] == EXIT_CHECK_FAILED
    assert "geometry_anholonomy" in rep["status"]["failed"]


def test_report_is_deterministic():
    cfg = flat_config(alpha=0.45, mode="diagnostic", truncation_order=3, seed=42)
    blob1 = emit_json(run_pipeline(parse_config_dict(cfg)))
    blob2 = emit_json(run_pipeline(parse_config_dict(cfg)))
    assert blob1 == blob2


def test_report_round_trip():
    rep = run_pipeline(parse_config_dict(flat_config()))
    assert json.loads(emit_json(rep)) == json.loads(json.dumps(rep))


def test_text_report_one_line_per_check():
    rep = run_pipeline(parse_config_dict(flat_config()))
    text = emit_text(rep)
    for c in rep["checks"]:
        assert sum(1 for line in text.splitlines() if line.strip().startswith(c["name"])) == 1


def test_star_coefficients_schema():
    rep = run_pipeline(parse_config_dict(flat_config()))
    for entry in rep["star"]["coefficients"]:
        assert set(entry) == {"r", "terms"}
        for term in entry["terms"]:
            assert set(term) == {"re", "im", "exp"}
            assert len(term["exp"]) == 2


# -- command-line surface ---------------------------------------------------------


def test_cmd_run_exit_zero(tmp_path):
    out = io.StringIO()
    path = write_config(tmp_path, flat_config())
    code = main(["run", "--config", path], stream=out)
    assert code == EXIT_OK
    rep = json.loads(out.getvalue())
    assert rep["status"]["exit_code"] == EXIT_OK


def test_cmd_run_writes_file(tmp_path):
    path = write_config(tmp_path, flat_config())
    out_path = tmp_path / "report.json"
    code = main(["run", "--config", path, "--out", str(out_path)], stream=io.StringIO())
    assert code == EXIT_OK
    rep = json.loads(out_path.read_bytes())
    assert rep["engine"]["name"] == "akstar"


def test_cmd_run_text_format(tmp_path):
    out = io.StringIO()
    path = write_config(tmp_path, flat_config())
    code = main(["run", "--config", path, "--format", "text"], stream=out)
    assert code == EXIT_OK
    assert "checks:" in out.getvalue()


def test_cmd_run_order_override(tmp_path):
    out = io.StringIO()
    path = write_config(tmp_path, flat_config(truncation_order=2))
    code = main(["run", "--config", path, "--order", "4"], stream=out)
    assert code == EXIT_OK
    rep = json.loads(out.getvalue())
    assert rep["config"]["truncation_order"] == 4


def test_exit_code_config_error(tmp_path):
    path = write_config(tmp_path, flat_config(alpha=2.0))
    assert main(["run", "--config", path], stream=io.StringIO()) == EXIT_CONFIG_ERROR
    assert main(["run", "--config", str(tmp_path / "nope.json")], stream=io.StringIO()) == EXIT_CONFIG_ERROR


def test_exit_code_compute_error_with_partial_report(tmp_path):
    # multi-term diagonal Hessian is outside the invertible class
    cfg = flat_config(lagrangian=[{"c": 1, "exp": [0, 2]}, {"c": 1, "exp": [0, 3]}])
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    code = main(["run", "--config", path], stream=out)
    assert code == EXIT_COMPUTE_ERROR
    rep = json.loads(out.getvalue())
    assert rep["error"]["type"] == "ExpressionClassError"
    assert rep["status"]["exit_code"] == EXIT_COMPUTE_ERROR
    # the Hessian is inverted while the geometry is built: nothing finished
    assert rep["error"]["stage"] == "geometry"
    assert "geometry" not in rep
    assert rep["checks"] == []


def test_overflowing_value_is_a_compute_error(tmp_path):
    # x^2000 overflows a float at the sample points while the geometry is
    # built: a compute error (exit 2) with a report, not a traceback (exit 1)
    cfg = flat_config(lagrangian=[{"c": 1, "exp": [2000, 2]}], mode="diagnostic", truncation_order=3)
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    code = main(["run", "--config", path], stream=out)
    assert code == EXIT_COMPUTE_ERROR
    rep = json.loads(out.getvalue())
    assert rep["error"]["type"] == "EvaluationDomainError"
    assert rep["error"]["stage"] == "geometry"
    assert rep["status"]["exit_code"] == EXIT_COMPUTE_ERROR


def test_exit_code_compute_error_alpha_half_class_exit(tmp_path):
    # at alpha = 1/2 the recursion leaves the differentiable class at
    # total degree 3; the run aborts with a partial report
    cfg = flat_config(alpha=0.5, mode="diagnostic", truncation_order=3)
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    code = main(["run", "--config", path], stream=out)
    assert code == EXIT_COMPUTE_ERROR
    rep = json.loads(out.getvalue())
    assert rep["error"]["type"] == "FractionalDomainError"
    # the sections finished before the recursion stay in the report
    assert rep["error"]["stage"] == "recursion"
    assert "geometry" in rep
    assert not {"fedosov", "star", "chern"} & set(rep)
    prefixes = {c["name"].split("_")[0] for c in rep["checks"]}
    assert prefixes == {"caputo", "algebra", "geometry"}


def test_abort_names_degree_coordinate_and_exponents():
    # x^2 y^2 at alpha = 0.6: the Deg-4 right side of the recursion needs
    # the Caputo derivative in y of a term x^2 y^-1
    out = io.StringIO()
    code = main(["run", "--config", str(GOLDEN / "x2y2_a0.6.config.json")], stream=out)
    assert code == EXIT_COMPUTE_ERROR
    err = json.loads(out.getvalue())["error"]
    assert err["type"] == "FractionalDomainError" and err["stage"] == "recursion"
    assert (err["coordinate"], err["exponents"], err["degree"]) == (1, [2.0, -1.0], 4)
    assert err["message"].startswith("coordinate 1, term with exponents [2.0, -1.0]: ")


def test_run_builds_one_wick_algebra(monkeypatch):
    # the algebra checks use the Fedosov machine's algebra, so a run fills
    # one contraction table
    from akstar import wick

    built = []
    init = wick.WickAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(wick.WickAlgebra, "__init__", counting_init)
    code = main(["run", "--config", str(GOLDEN / "y4_a1.config.json")], stream=io.StringIO())
    assert code == EXIT_OK
    assert len(built) == 1


def test_strict_check_geometry_passes_on_w4(tmp_path):
    # W4 has non-zero torsion, curvature and Omega, and N_J != 0
    cfg = json.loads((GOLDEN / "w4_star_o1.config.json").read_text())
    cfg["mode"] = "strict"
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    assert main(["check", "geometry", "--config", path], stream=out) == EXIT_OK
    lines = out.getvalue().splitlines()
    assert len(lines) == 10
    assert all(" pass " in line for line in lines)


def test_stage_names_resolve_to_pipeline_methods():
    names = set(STAGES) | set(STAR_STAGES)
    for stages in CHECK_STAGES.values():
        names |= set(stages)
    for name in names:
        assert callable(getattr(Pipeline, "_" + name.replace("-", "_"), None)), name
    assert STAGES.index("star") < STAGES.index("star-checks") < STAGES.index("chern")
    assert "star-checks" not in STAR_STAGES


def test_recursion_defect_is_gated_by_the_r_residual_check(tmp_path):
    # y^4's Deg-3 flatness defect is 5.55e-17; solve_r only records it, and
    # a strict tolerance below it fails the run through fedosov_r_residual
    cfg = json.loads((GOLDEN / "y4_a1.config.json").read_text())
    cfg.update(mode="strict", tolerances={"fedosov_r_residual": 1e-17})
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    assert main(["run", "--config", path], stream=out) == EXIT_CHECK_FAILED
    rep = json.loads(out.getvalue())
    assert rep["status"]["failed"] == ["fedosov_r_residual"]
    assert "error" not in rep
    [entry] = [c for c in rep["checks"] if c["name"] == "fedosov_r_residual"]
    assert entry["value"] > entry["threshold"] == 1e-17


def test_exit_code_check_failure(tmp_path):
    cfg = flat_config(
        alpha=0.45,
        lagrangian=[{"c": 1, "exp": [2, 2]}],
        truncation_order=3,
        tolerances={"geometry_anholonomy": 1e-8},
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path], stream=io.StringIO()) == EXIT_CHECK_FAILED


def test_check_subcommands(tmp_path):
    path = write_config(tmp_path, flat_config())
    for group in ("algebra", "geometry", "fedosov"):
        out = io.StringIO()
        assert main(["check", group, "--config", path], stream=out) == EXIT_OK
        assert out.getvalue().strip()
    frac = write_config(tmp_path, flat_config(alpha=0.45, truncation_order=3), "frac.json")
    out = io.StringIO()
    assert main(["check", "caputo", "--config", frac], stream=out) == EXIT_OK
    assert "caputo_power_rule" in out.getvalue()


def test_check_geometry_matches_run(tmp_path):
    # the geometry checks probe the configured observables in both commands
    cfg = json.loads((GOLDEN / "x2y2_a0.45.config.json").read_text())
    cfg["observables"] = {"f": [{"c": 1, "exp": [3, 2]}], "g": [{"c": 1, "exp": [0, 3]}]}
    path = write_config(tmp_path, cfg)
    run_out, check_out = io.StringIO(), io.StringIO()
    assert main(["run", "--config", path, "--format", "text"], stream=run_out) == EXIT_OK
    assert main(["check", "geometry", "--config", path], stream=check_out) == EXIT_OK
    run_lines = [
        line.strip() for line in run_out.getvalue().splitlines() if line.startswith("  geometry_")
    ]
    assert len(run_lines) == 10
    assert check_out.getvalue().splitlines() == run_lines


def test_star_negative_order_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, flat_config())
    out = io.StringIO()
    assert main(["star", "--config", path, "--order", "-1"], stream=out) == EXIT_CONFIG_ERROR
    assert out.getvalue() == ""
    assert "--order" in capsys.readouterr().err


def test_run_order_below_two_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, flat_config())
    out = io.StringIO()
    assert main(["run", "--config", path, "--order", "1"], stream=out) == EXIT_CONFIG_ERROR
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert "--order" in err and "/truncation_order" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000], ids=["undecodable", "too-deep"])
def test_unparsable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path)], stream=io.StringIO()) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")


def test_unwritable_out_path_fails_before_the_pipeline(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, flat_config())
    monkeypatch.setattr(Pipeline, "run", lambda *args: pytest.fail("the pipeline ran"))
    out_path = tmp_path / "missing" / "r.json"
    assert main(["run", "--config", path, "--out", str(out_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: --out: cannot write the report")
    assert not out_path.parent.exists()


def test_check_caputo_requires_fractional_alpha(tmp_path, capsys):
    path = write_config(tmp_path, flat_config())
    assert main(["check", "caputo", "--config", path], stream=io.StringIO()) == EXIT_CONFIG_ERROR
    assert "/alpha" in capsys.readouterr().err


def test_fractional_two_dim_pipeline():
    cfg = {
        "alpha": 0.45,
        "n": 2,
        "lagrangian": [{"c": 1, "exp": [0, 0, 2, 0]}, {"c": 1, "exp": [0, 0, 0, 2]}],
        "truncation_order": 3,
        "mode": "diagnostic",
        "seed": 2,
    }
    rep = run_pipeline(parse_config_dict(cfg))
    assert rep["status"]["exit_code"] == EXIT_OK


def test_finsler_square_configuration():
    # square of the 1-homogeneous generating function F = sqrt(x) y
    cfg = flat_config(lagrangian=[{"c": 1, "exp": [1, 2]}])
    rep = run_pipeline(parse_config_dict(cfg))
    assert rep["status"]["exit_code"] == EXIT_OK
    frac = flat_config(
        alpha=0.45, lagrangian=[{"c": 1, "exp": [1, 2]}], mode="diagnostic", truncation_order=3
    )
    rep = run_pipeline(parse_config_dict(frac))
    assert rep["status"]["exit_code"] == EXIT_OK


def test_partial_report_text_emission(tmp_path):
    cfg = flat_config(alpha=0.5, mode="diagnostic", truncation_order=3)
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    code = main(["run", "--config", path, "--format", "text"], stream=out)
    assert code == EXIT_COMPUTE_ERROR
    text = out.getvalue()
    assert "error: FractionalDomainError" in text
    assert "exit 2" in text


def test_star_subcommand(tmp_path):
    path = write_config(tmp_path, flat_config())
    out = io.StringIO()
    code = main(["star", "--config", path, "--order", "2"], stream=out)
    assert code == EXIT_OK
    payload = json.loads(out.getvalue())
    assert payload["order"] == 2
    # flat configuration: C_1(x, y) = i/2 theta^{xy} eval
    c1 = payload["coefficients"][1]["terms"]
    assert len(c1) == 1
    assert c1[0]["im"] == pytest.approx(0.5)


def test_star_default_order_matches_run(tmp_path):
    # without --order, star reports the order run does (first order for alpha < 1)
    path = str(GOLDEN / "x2y2_a0.45.config.json")
    run_out, star_out = io.StringIO(), io.StringIO()
    assert main(["run", "--config", path], stream=run_out) == EXIT_OK
    assert main(["star", "--config", path], stream=star_out) == EXIT_OK
    star_section = json.loads(run_out.getvalue())["star"]
    assert star_section["order"] == 1
    assert star_out.getvalue() == emit_json(star_section).decode("utf-8")


def test_check_keeps_the_note(tmp_path):
    path = str(GOLDEN / "x2y2_a0.45.config.json")
    run_out, check_out = io.StringIO(), io.StringIO()
    assert main(["run", "--config", path, "--format", "text"], stream=run_out) == EXIT_OK
    assert main(["check", "fedosov", "--config", path], stream=check_out) == EXIT_OK
    (line,) = [ln for ln in check_out.getvalue().splitlines() if ln.startswith("fedosov_dsq_probe")]
    assert "(some probes left the differentiable class: " in line
    assert f"  {line}" in run_out.getvalue().splitlines()


def test_classical_certificate_does_not_follow_the_seed():
    # at alpha = 1 fedosov_dsq_probe runs on the generators, not on the
    # seeded probes, so the config seed cannot move its value
    raw = json.loads((GOLDEN / "x2y3_a1.config.json").read_text())
    entries = []
    for seed in (3, 7):
        report = Pipeline(parse_config_dict(dict(raw, seed=seed))).run(CHECK_STAGES["fedosov"])
        (entry,) = [c for c in report["checks"] if c["name"] == "fedosov_dsq_probe"]
        entries.append(entry)
    assert entries[0] == entries[1]
    assert entries[0]["note"] == "certified on the 4 generators z^i, e^a"


def test_module_entry_point_prints_the_report():
    config = str(GOLDEN / "y4_a1.config.json")
    out = io.StringIO()
    assert main(["run", "--config", config], stream=out) == EXIT_OK
    proc = fresh_interpreter("-m", "akstar.cli", "run", "--config", config)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == out.getvalue()


_FOOTPRINT = """
import io, json, sys
from akstar.cli import main
code = main(sys.argv[1:], stream=io.StringIO()) if sys.argv[1:] else None
print(json.dumps([code, [m for m in ("numpy", "scipy") if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("star", "--config", str(GOLDEN / "y4_a1.config.json"), "--order", "1"),
        ("run", "--config", str(GOLDEN / "y4_a1.config.json")),
        ("run", "--config", str(GOLDEN / "y2p5_a0.3.config.json")),
        ("check", "caputo", "--config", str(GOLDEN / "x2y3_a0.7.config.json")),
    ],
    ids=["import", "star_a1", "run_a1", "run_a0.3", "check_caputo_a0.7"],
)
def test_numeric_libraries_load_only_where_called(argv):
    # the Gamma ratios, the quadrature oracle and the seeded draws are pure
    # Python, so no invocation imports numpy or scipy, not even a fractional
    # one that runs the oracle
    proc = fresh_interpreter("-c", _FOOTPRINT, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == (EXIT_OK if argv else None)
    assert modules == [], modules
