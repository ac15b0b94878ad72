"""Configuration validation, pipeline orchestration, report contracts."""

import io
import json

import pytest

from akstar.checks import CHECK_NAMES
from akstar.cli import (
    EXIT_CHECK_FAILED,
    EXIT_COMPUTE_ERROR,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
    parse_config_dict,
    run_pipeline,
)
from akstar.errors import ConfigError
from akstar.report import emit_json, emit_text, parse_report


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


def test_pointer_paths_in_errors():
    with pytest.raises(ConfigError, match="/lagrangian/0/exp"):
        parse_config_dict(flat_config(lagrangian=[{"c": 1, "exp": [1]}]))
    with pytest.raises(ConfigError, match="/truncation_order"):
        parse_config_dict(flat_config(truncation_order=1))
    with pytest.raises(ConfigError, match="/mode"):
        parse_config_dict(flat_config(mode="loose"))
    with pytest.raises(ConfigError, match="/tolerances/x"):
        parse_config_dict(flat_config(tolerances={"x": -1.0}))
    with pytest.raises(ConfigError, match="/unknown"):
        parse_config_dict(flat_config(unknown=3))


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
    assert emitted == CHECK_NAMES


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
    assert parse_report(emit_json(rep)) == json.loads(json.dumps(rep))


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
    rep = parse_report(out.getvalue().encode())
    assert rep["status"]["exit_code"] == EXIT_OK


def test_cmd_run_writes_file(tmp_path):
    path = write_config(tmp_path, flat_config())
    out_path = tmp_path / "report.json"
    code = main(["run", "--config", path, "--out", str(out_path)], stream=io.StringIO())
    assert code == EXIT_OK
    rep = parse_report(out_path.read_bytes())
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
    rep = parse_report(out.getvalue().encode())
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
    rep = parse_report(out.getvalue().encode())
    assert rep["error"]["type"] == "ExpressionClassError"
    assert rep["status"]["exit_code"] == EXIT_COMPUTE_ERROR


def test_exit_code_compute_error_alpha_half_class_exit(tmp_path):
    # at alpha = 1/2 the recursion leaves the differentiable class at
    # total degree 3; the run aborts with a partial report
    cfg = flat_config(alpha=0.5, mode="diagnostic", truncation_order=3)
    path = write_config(tmp_path, cfg)
    out = io.StringIO()
    code = main(["run", "--config", path], stream=out)
    assert code == EXIT_COMPUTE_ERROR
    rep = parse_report(out.getvalue().encode())
    assert rep["error"]["type"] == "FractionalDomainError"


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


def test_check_caputo_requires_fractional_alpha(tmp_path):
    path = write_config(tmp_path, flat_config())
    assert main(["check", "caputo", "--config", path], stream=io.StringIO()) == EXIT_CONFIG_ERROR


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
