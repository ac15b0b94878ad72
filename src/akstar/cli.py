"""Command-line interface: configuration, pipeline orchestration, reports.

Subcommands:

* ``run --config PATH [--order K] [--format json|text] [--out PATH]`` —
  full pipeline (geometry, algebra suite, recursion, star product,
  characteristic forms) with the invariant suite;
* ``check caputo|algebra|geometry|fedosov --config PATH`` — one section of
  the suite;
* ``star --config PATH --order K`` — star-product coefficients only.

Exit codes: 0 all pass, 1 invariant failure (strict mode), 2 computation
domain error (a partial report is still emitted), 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__, checks as checklib, report as reportlib
from .errors import ConfigError, EngineError
from .expr import AlphaContext, MalformedInputError, Signomial
from .fedosov import FedosovMachine, make_probes, star
from .geometry import GeometryBundle, LagrangianSpec, build_geometry

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_COMPUTE_ERROR = 2
EXIT_CONFIG_ERROR = 3


@dataclass(frozen=True)
class RunSpec:
    """Validated run configuration."""

    alpha: float
    n: int
    lagrangian: Signomial
    truncation_order: int
    observable_f: Signomial
    observable_g: Signomial
    sample_points: tuple
    mode: str
    tolerances: dict
    seed: int
    canonical: dict

    @property
    def ctx(self) -> AlphaContext:
        return AlphaContext(alpha=self.alpha, n=self.n)


def _fail(pointer: str, message: str):
    raise ConfigError(f"{pointer}: {message}")


def _term_list(raw, pointer: str, dim: int) -> Signomial:
    if not isinstance(raw, list) or not raw:
        _fail(pointer, "expected a non-empty list of term records")
    items = []
    for i, rec in enumerate(raw):
        here = f"{pointer}/{i}"
        if not isinstance(rec, dict) or set(rec) - {"c", "exp"}:
            _fail(here, "expected an object with fields 'c' and 'exp'")
        c = rec.get("c")
        if isinstance(c, (int, float)):
            coef = complex(c)
        elif isinstance(c, list) and len(c) == 2 and all(isinstance(v, (int, float)) for v in c):
            coef = complex(c[0], c[1])
        else:
            _fail(f"{here}/c", "expected a number or [re, im]")
        exp = rec.get("exp")
        if not isinstance(exp, list) or len(exp) != dim or not all(
            isinstance(v, (int, float)) for v in exp
        ):
            _fail(f"{here}/exp", f"expected {dim} numeric exponents")
        items.append((coef, [float(v) for v in exp]))
    try:
        return Signomial.from_terms(dim, items)
    except MalformedInputError as err:
        _fail(pointer, str(err))


def _default_points(dim: int) -> list:
    base = [
        [1.0] * dim,
        [(1.5, 0.7, 0.9, 1.1, 1.3, 0.6)[i % 6] for i in range(dim)],
        [(0.8, 1.3, 1.4, 0.6, 1.1, 1.6)[i % 6] for i in range(dim)],
        [(2.0, 0.5, 1.0, 1.5, 0.7, 1.2)[i % 6] for i in range(dim)],
        [(1.2, 2.0, 0.7, 0.9, 1.5, 0.8)[i % 6] for i in range(dim)],
    ]
    return base


def parse_config_dict(raw: dict) -> RunSpec:
    if not isinstance(raw, dict):
        _fail("", "top-level value must be an object")
    known = {
        "alpha",
        "n",
        "lagrangian",
        "truncation_order",
        "observables",
        "sample_points",
        "mode",
        "tolerances",
        "seed",
    }
    for key in raw:
        if key not in known:
            _fail(f"/{key}", "unknown field")

    alpha = raw.get("alpha")
    if not isinstance(alpha, (int, float)) or not 0.0 < float(alpha) <= 1.0:
        _fail("/alpha", "alpha out of range (0, 1]")
    alpha = float(alpha)

    n = raw.get("n")
    if not isinstance(n, int) or n < 1:
        _fail("/n", "n must be a positive integer")
    dim = 2 * n

    if "lagrangian" not in raw:
        _fail("/lagrangian", "missing field")
    lagrangian = _term_list(raw["lagrangian"], "/lagrangian", dim)

    order = raw.get("truncation_order", 3)
    if not isinstance(order, int) or order < 2:
        _fail("/truncation_order", "truncation order must be an integer >= 2")

    obs = raw.get("observables", {})
    if not isinstance(obs, dict) or set(obs) - {"f", "g"}:
        _fail("/observables", "expected an object with fields 'f' and 'g'")
    if "f" in obs:
        f = _term_list(obs["f"], "/observables/f", dim)
    else:
        f = Signomial.coordinate(dim, 0)
    if "g" in obs:
        g = _term_list(obs["g"], "/observables/g", dim)
    else:
        g = Signomial.coordinate(dim, n)

    pts_raw = raw.get("sample_points", _default_points(dim))
    if not isinstance(pts_raw, list) or not pts_raw:
        _fail("/sample_points", "expected a non-empty list of points")
    points = []
    for i, p in enumerate(pts_raw):
        if not isinstance(p, list) or len(p) != dim:
            _fail(f"/sample_points/{i}", f"expected {dim} coordinates")
        for j, v in enumerate(p):
            if not isinstance(v, (int, float)) or not v > 0.0:
                _fail(f"/sample_points/{i}/{j}", "coordinates must be strictly positive")
        points.append(tuple(float(v) for v in p))

    mode = raw.get("mode", "strict")
    if mode not in ("strict", "diagnostic"):
        _fail("/mode", "mode must be 'strict' or 'diagnostic'")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail("/tolerances", "expected an object of name -> threshold")
    for name, v in tolerances.items():
        if name not in checklib.CHECK_NAMES:
            _fail(f"/tolerances/{name}", "unknown check name")
        if not isinstance(v, (int, float)) or v < 0:
            _fail(f"/tolerances/{name}", "threshold must be a nonnegative number")
    tolerances = {k: float(v) for k, v in tolerances.items()}

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        _fail("/seed", "seed must be a nonnegative integer")

    canonical = {
        "alpha": alpha,
        "n": n,
        "lagrangian": reportlib.signomial_terms(lagrangian),
        "truncation_order": order,
        "observables": {
            "f": reportlib.signomial_terms(f),
            "g": reportlib.signomial_terms(g),
        },
        "sample_points": [list(p) for p in points],
        "mode": mode,
        "tolerances": dict(sorted(tolerances.items())),
        "seed": seed,
    }
    return RunSpec(
        alpha=alpha,
        n=n,
        lagrangian=lagrangian,
        truncation_order=order,
        observable_f=f,
        observable_g=g,
        sample_points=tuple(points),
        mode=mode,
        tolerances=tolerances,
        seed=seed,
        canonical=canonical,
    )


def parse_config(path: str) -> RunSpec:
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return parse_config_dict(raw)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _geometry_section(bundle: GeometryBundle) -> dict:
    sym = bundle.symp
    tors = []
    dim = bundle.ctx.dim
    for g in range(dim):
        for a in range(dim):
            for b in range(a + 1, dim):
                t = bundle.torsion.full[g][a][b]
                if not t.is_zero:
                    tors.append({"idx": [g, a, b], "terms": reportlib.signomial_terms(t)})
    curv = []
    for t in range(dim):
        for f in range(dim):
            for a in range(dim):
                for b in range(a + 1, dim):
                    r = bundle.curvature.full[t][f][a][b]
                    if not r.is_zero:
                        curv.append(
                            {"idx": [t, f, a, b], "terms": reportlib.signomial_terms(r)}
                        )
    return {
        "metric": reportlib.matrix_terms(bundle.metric.h),
        "metric_inverse": reportlib.matrix_terms(bundle.metric.h_inv),
        "semi_spray": [reportlib.signomial_terms(gg) for gg in bundle.nconn.G],
        "n_connection": reportlib.matrix_terms(bundle.nconn.N),
        "d_connection": {
            "l_hh": [reportlib.matrix_terms(m) for m in bundle.dconn.l_hh],
            "c_vv": [reportlib.matrix_terms(m) for m in bundle.dconn.c_vv],
        },
        "theta_lower": reportlib.matrix_terms(sym.theta_lower),
        "theta_upper": reportlib.matrix_terms(sym.theta_upper),
        "lambda": reportlib.matrix_terms(sym.lam),
        "j_matrix": [[float(v) for v in row] for row in sym.J],
        "torsion_nonzero": tors,
        "curvature_nonzero": curv,
    }


def run_pipeline(spec: RunSpec) -> dict:
    """Execute every stage and assemble the report dictionary.

    Raises EngineError subclasses on computation failures; the caller is
    responsible for wrapping partial output.
    """
    report: dict = {
        "engine": {"name": "akstar", "version": __version__},
        "provenance": {
            "config_sha256": reportlib.config_digest(spec.canonical),
            "seed": spec.seed,
        },
        "config": spec.canonical,
    }
    results = []
    points = spec.sample_points
    ctx = spec.ctx

    if spec.alpha < 1.0:
        results.extend(checklib.caputo_checks(spec.alpha, spec.mode, spec.tolerances))

    lag_spec = LagrangianSpec(L=spec.lagrangian, ctx=ctx, regularity_points=points)
    bundle = build_geometry(lag_spec)
    report["geometry"] = _geometry_section(bundle)

    results.extend(
        checklib.algebra_checks(bundle, seed=spec.seed, mode=spec.mode, tolerances=spec.tolerances)
    )

    dim = ctx.dim
    scalar_probes = [Signomial.constant(dim, 1.0)] + [
        Signomial.coordinate(dim, i) for i in range(dim)
    ] + [spec.observable_f, spec.observable_g]
    results.extend(
        checklib.geometry_checks(bundle, points, scalar_probes, spec.mode, spec.tolerances)
    )

    machine = FedosovMachine(bundle)
    state = machine.solve_r(spec.truncation_order, strict=False)
    report["fedosov"] = {
        "truncation_order": spec.truncation_order,
        "r_residuals": {str(d): v for d, v in sorted(state.residuals.items())},
        "r_term_counts": {
            str(d): len(state.r_components[d].terms) for d in sorted(state.r_components)
        },
        "gauge_residual": state.gauge_residual(),
    }
    probes = make_probes(bundle, seed=spec.seed, count=8)
    results.extend(
        checklib.fedosov_checks(machine, state, points, probes, spec.mode, spec.tolerances)
    )

    # star order: full depth classically; first order for alpha < 1, where
    # deeper lifts can leave the differentiable class
    if ctx.classical:
        star_order = (spec.truncation_order + 1) // 2
    else:
        star_order = 1
    star_results, coeffs = checklib.star_checks(
        state, spec.observable_f, spec.observable_g, star_order, points, spec.mode, spec.tolerances
    )
    results.extend(star_results)
    report["star"] = {
        "order": star_order,
        "f": reportlib.signomial_terms(spec.observable_f),
        "g": reportlib.signomial_terms(spec.observable_g),
        "coefficients": [
            {"r": r, "terms": reportlib.star_terms(c)} for r, c in enumerate(coeffs.coeffs)
        ],
    }

    chern_results, forms = checklib.chern_checks(
        bundle, machine, points, scalar_probes, spec.mode, spec.tolerances
    )
    results.extend(chern_results)
    report["chern"] = {
        name: reportlib.form_components(form) for name, form in sorted(forms.items())
    }
    report["chern"]["note"] = (
        "c0 entry is the representative 2-form -(1/(2i)) gamma; no cohomology "
        "class extraction is performed"
    )

    failed = sorted(r.name for r in results if r.status == "fail")
    exit_code = EXIT_CHECK_FAILED if (failed and spec.mode == "strict") else EXIT_OK
    report["checks"] = [reportlib.check_entry(r) for r in results]
    report["status"] = {
        "mode": spec.mode,
        "exit_code": exit_code,
        "failed": failed,
    }
    return report


def _partial_report(spec: RunSpec, err: EngineError) -> dict:
    return {
        "engine": {"name": "akstar", "version": __version__},
        "provenance": {
            "config_sha256": reportlib.config_digest(spec.canonical),
            "seed": spec.seed,
        },
        "config": spec.canonical,
        "error": {"type": type(err).__name__, "message": str(err)},
        "status": {"mode": spec.mode, "exit_code": EXIT_COMPUTE_ERROR, "failed": []},
    }


def _emit(report: dict, fmt: str, out_path: str | None, stream) -> None:
    if fmt == "json":
        blob = reportlib.emit_json(report)
        if out_path:
            with open(out_path, "wb") as fh:
                fh.write(blob)
        else:
            stream.write(blob.decode("utf-8"))
    else:
        text = reportlib.emit_text(report)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            stream.write(text)


def _cmd_run(args, stream) -> int:
    spec = parse_config(args.config)
    if args.order is not None:
        raw = dict(spec.canonical)
        raw["truncation_order"] = args.order
        spec = parse_config_dict(raw)
    try:
        report = run_pipeline(spec)
    except EngineError as err:
        if isinstance(err, ConfigError):
            raise
        _emit(_partial_report(spec, err), args.format, args.out, stream)
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    _emit(report, args.format, args.out, stream)
    return report["status"]["exit_code"]


def _cmd_check(args, stream) -> int:
    spec = parse_config(args.config)
    points = spec.sample_points
    results = []
    try:
        if args.group == "caputo":
            if spec.alpha >= 1.0:
                print("caputo check needs a fractional alpha", file=sys.stderr)
                return EXIT_CONFIG_ERROR
            results = checklib.caputo_checks(spec.alpha, spec.mode, spec.tolerances)
        else:
            lag_spec = LagrangianSpec(L=spec.lagrangian, ctx=spec.ctx, regularity_points=points)
            bundle = build_geometry(lag_spec)
            if args.group == "algebra":
                results = checklib.algebra_checks(bundle, spec.seed, spec.mode, spec.tolerances)
            elif args.group == "geometry":
                dim = spec.ctx.dim
                scalar_probes = [Signomial.constant(dim, 1.0)] + [
                    Signomial.coordinate(dim, i) for i in range(dim)
                ]
                results = checklib.geometry_checks(
                    bundle, points, scalar_probes, spec.mode, spec.tolerances
                )
            else:  # fedosov
                machine = FedosovMachine(bundle)
                state = machine.solve_r(spec.truncation_order, strict=False)
                probes = make_probes(bundle, seed=spec.seed, count=8)
                results = checklib.fedosov_checks(
                    machine, state, points, probes, spec.mode, spec.tolerances
                )
    except EngineError as err:
        if isinstance(err, ConfigError):
            raise
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    for r in results:
        val = "pole" if r.value is None else f"{r.value:.3e}"
        thr = "-" if r.threshold is None else f"{r.threshold:.1e}"
        stream.write(f"{r.name:<28} {r.status:<10} value {val:>10}  tol {thr}\n")
    failed = [r.name for r in results if r.status == "fail"]
    return EXIT_CHECK_FAILED if (failed and spec.mode == "strict") else EXIT_OK


def _cmd_star(args, stream) -> int:
    spec = parse_config(args.config)
    order = args.order if args.order is not None else (spec.truncation_order + 1) // 2
    try:
        lag_spec = LagrangianSpec(
            L=spec.lagrangian, ctx=spec.ctx, regularity_points=spec.sample_points
        )
        bundle = build_geometry(lag_spec)
        machine = FedosovMachine(bundle)
        k_state = max(spec.truncation_order, 2 * order - 1, 2)
        state = machine.solve_r(k_state, strict=False)
        coeffs = star(spec.observable_f, spec.observable_g, state, order)
    except EngineError as err:
        if isinstance(err, ConfigError):
            raise
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_COMPUTE_ERROR
    payload = {
        "order": order,
        "f": reportlib.signomial_terms(spec.observable_f),
        "g": reportlib.signomial_terms(spec.observable_g),
        "coefficients": [
            {"r": r, "terms": reportlib.star_terms(c)} for r, c in enumerate(coeffs.coeffs)
        ],
    }
    stream.write(reportlib.emit_json(payload).decode("utf-8"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akstar",
        description="almost-Kahler geometry and star products from a signomial Lagrangian",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline with the invariant suite")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--order", type=int, default=None, help="override truncation order")
    p_run.add_argument("--format", choices=("json", "text"), default="json")
    p_run.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="run one section of the invariant suite")
    p_check.add_argument("group", choices=("caputo", "algebra", "geometry", "fedosov"))
    p_check.add_argument("--config", required=True)

    p_star = sub.add_parser("star", help="star-product coefficients")
    p_star.add_argument("--config", required=True)
    p_star.add_argument("--order", type=int, default=None)

    return parser


def main(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, stream)
        if args.command == "check":
            return _cmd_check(args, stream)
        return _cmd_star(args, stream)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def entrypoint() -> None:
    sys.exit(main())
