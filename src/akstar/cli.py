"""Command-line interface: configuration, pipeline orchestration, reports.

Subcommands:

* ``run --config PATH [--order K] [--format json|text] [--out PATH]`` —
  full pipeline (geometry, algebra suite, recursion, star product,
  characteristic forms) with the invariant suite;
* ``check caputo|algebra|geometry|fedosov --config PATH`` — one section of
  the suite;
* ``star --config PATH [--order K]`` — star-product coefficients only, by
  default to the order ``run`` reports.

Each subcommand runs an ordered subset of the pipeline stages (``STAGES``):
caputo, geometry, algebra, geometry-checks, recursion, fedosov-checks,
star, star-checks, chern.  ``run`` runs them all; ``check GROUP`` runs
``CHECK_STAGES[GROUP]``; ``star`` runs ``STAR_STAGES``, which computes the
coefficients without their checks.

Exit codes: 0 all pass, 1 invariant failure (strict mode), 2 computation
domain error (``run`` still emits every finished section, names the stage
that failed in ``error.stage`` and, for a Gamma pole, the ``coordinate``,
``exponents`` and ``degree`` of the failing term), 3 configuration error.
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


def _is_number(v, integer: bool = False) -> bool:
    """A finite JSON number (an integer when ``integer``); true and false are not numbers."""
    if isinstance(v, bool):
        return False
    if integer:
        return isinstance(v, int)
    # the bound also rejects NaN, +-Infinity and integers beyond the float range
    return isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _term_list(raw, pointer: str, dim: int) -> Signomial:
    if not isinstance(raw, list) or not raw:
        _fail(pointer, "expected a non-empty list of term records")
    items = []
    for i, rec in enumerate(raw):
        here = f"{pointer}/{i}"
        if not isinstance(rec, dict) or set(rec) - {"c", "exp"}:
            _fail(here, "expected an object with fields 'c' and 'exp'")
        c = rec.get("c")
        if _is_number(c):
            coef = complex(c)
        elif isinstance(c, list) and len(c) == 2 and all(_is_number(v) for v in c):
            coef = complex(c[0], c[1])
        else:
            _fail(f"{here}/c", "expected a number or [re, im]")
        exp = rec.get("exp")
        if not isinstance(exp, list) or len(exp) != dim or not all(_is_number(v) for v in exp):
            _fail(f"{here}/exp", f"expected {dim} numeric exponents")
        items.append((coef, [float(v) for v in exp]))
    try:
        return Signomial.from_terms(dim, items)
    except MalformedInputError as err:
        _fail(pointer, str(err))


def _default_points(dim: int) -> list:
    return [
        [1.0] * dim,
        [(1.5, 0.7, 0.9, 1.1, 1.3, 0.6)[i % 6] for i in range(dim)],
        [(0.8, 1.3, 1.4, 0.6, 1.1, 1.6)[i % 6] for i in range(dim)],
        [(2.0, 0.5, 1.0, 1.5, 0.7, 1.2)[i % 6] for i in range(dim)],
        [(1.2, 2.0, 0.7, 0.9, 1.5, 0.8)[i % 6] for i in range(dim)],
    ]


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
    if not _is_number(alpha) or not 0.0 < alpha <= 1.0:
        _fail("/alpha", "alpha must be a number in (0, 1]")
    alpha = float(alpha)

    n = raw.get("n")
    if not _is_number(n, integer=True) or n < 1:
        _fail("/n", "n must be a positive integer")
    dim = 2 * n

    if "lagrangian" not in raw:
        _fail("/lagrangian", "missing field")
    lagrangian = _term_list(raw["lagrangian"], "/lagrangian", dim)

    order = raw.get("truncation_order", 3)
    if not _is_number(order, integer=True) or order < 2:
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
            if not _is_number(v) or not v > 0.0:
                _fail(f"/sample_points/{i}/{j}", "coordinates must be finite and strictly positive")
        points.append(tuple(float(v) for v in p))

    mode = raw.get("mode", "strict")
    if mode not in ("strict", "diagnostic"):
        _fail("/mode", "mode must be 'strict' or 'diagnostic'")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail("/tolerances", "expected an object of name -> threshold")
    for name, v in tolerances.items():
        if name not in checklib.CHECKS:
            _fail(f"/tolerances/{name}", "unknown check name")
        if not _is_number(v) or v < 0:
            _fail(f"/tolerances/{name}", "threshold must be a finite nonnegative number")
    tolerances = {k: float(v) for k, v in tolerances.items()}

    seed = raw.get("seed", 0)
    if not _is_number(seed, integer=True) or seed < 0:
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return parse_config_dict(raw)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _geometry_section(bundle: GeometryBundle) -> dict:
    """The geometry report; the metric and d-connection blocks are read off the bundle."""
    tors = []
    n, dim = bundle.ctx.n, bundle.ctx.dim
    gamma = bundle.gamma
    # L^i_{jk} and C^a_{bc} as [target][source][direction], read off the one Gamma table
    l_hh = [[[gamma[i][k][j] for k in range(n)] for j in range(n)] for i in range(n)]
    c_vv = [[[gamma[a][n + c][b] for c in range(n)] for b in range(n)] for a in range(n)]
    for g in range(dim):
        for a in range(dim):
            for b in range(a + 1, dim):
                t = bundle.torsion[g][a][b]
                if not t.is_zero:
                    tors.append({"idx": [g, a, b], "terms": reportlib.signomial_terms(t)})
    curv = []
    for t in range(dim):
        for f in range(dim):
            for a in range(dim):
                for b in range(a + 1, dim):
                    r = bundle.curvature[t][f][a][b]
                    if not r.is_zero:
                        curv.append(
                            {"idx": [t, f, a, b], "terms": reportlib.signomial_terms(r)}
                        )
    return {
        "metric": reportlib.matrix_terms(row[:n] for row in bundle.g_lower[:n]),
        "metric_inverse": reportlib.matrix_terms(row[:n] for row in bundle.g_upper[:n]),
        "semi_spray": [reportlib.signomial_terms(gg) for gg in bundle.G],
        "n_connection": reportlib.matrix_terms(bundle.N),
        "d_connection": {
            "l_hh": [reportlib.matrix_terms(m) for m in l_hh],
            "c_vv": [reportlib.matrix_terms(m) for m in c_vv],
        },
        "theta_lower": reportlib.matrix_terms(bundle.theta_lower),
        "theta_upper": reportlib.matrix_terms(bundle.theta_upper),
        "lambda": reportlib.matrix_terms(bundle.lam),
        "j_matrix": [[float(v) for v in row] for row in bundle.J],
        "torsion_nonzero": tors,
        "curvature_nonzero": curv,
    }


# Stage names in run order.  ``check`` and ``star`` run a subset in the
# same order, together with the stages it reads (geometry, recursion).
STAGES = (
    "caputo",
    "geometry",
    "algebra",
    "geometry-checks",
    "recursion",
    "fedosov-checks",
    "star",
    "star-checks",
    "chern",
)
CHECK_STAGES = {
    "caputo": ("caputo",),
    "algebra": ("geometry", "algebra"),
    "geometry": ("geometry", "geometry-checks"),
    "fedosov": ("geometry", "recursion", "fedosov-checks"),
}
STAR_STAGES = ("geometry", "recursion", "star")


class Pipeline:
    """The stages of one invocation over one configuration, in order.

    Each stage adds its report section as it finishes and records its
    checks in ``suite``, the one ``checks.Suite`` of the run, and ``stage``
    names the stage in progress, so after a computation failure
    ``finish(err)`` still reports every finished section and check and
    says where the run stopped.
    """

    def __init__(self, spec: RunSpec, star_order: int | None = None):
        self.spec = spec
        ctx = spec.ctx
        if star_order is None:
            # full depth classically; first order for alpha < 1, where
            # deeper lifts can leave the differentiable class
            star_order = (spec.truncation_order + 1) // 2 if ctx.classical else 1
        self.star_order = star_order
        self.scalar_probes = [Signomial.constant(ctx.dim, 1.0)] + [
            Signomial.coordinate(ctx.dim, i) for i in range(ctx.dim)
        ] + [spec.observable_f, spec.observable_g]
        self.suite = checklib.Suite(spec.alpha, spec.mode, spec.tolerances)
        self.stage = None
        self.report = {
            "engine": {"name": "akstar", "version": __version__},
            "provenance": {
                "config_sha256": reportlib.config_digest(spec.canonical),
                "seed": spec.seed,
            },
            "config": spec.canonical,
        }

    def run(self, stages) -> dict:
        for self.stage in stages:
            getattr(self, "_" + self.stage.replace("-", "_"))()
        return self.finish()

    def finish(self, err: EngineError | None = None) -> dict:
        """Add the check list and the status; with ``err``, the abort too."""
        spec = self.spec
        failed = sorted(e["name"] for e in self.suite.entries if e["status"] == "fail")
        if err is not None:
            self.report["error"] = {
                "type": type(err).__name__,
                "message": str(err),
                "stage": self.stage,
            }
            for key in ("coordinate", "exponents", "degree"):
                value = getattr(err, key, None)
                if value is not None:
                    self.report["error"][key] = list(value) if key == "exponents" else value
            exit_code = EXIT_COMPUTE_ERROR
        elif failed and spec.mode == "strict":
            exit_code = EXIT_CHECK_FAILED
        else:
            exit_code = EXIT_OK
        self.report["checks"] = self.suite.entries
        self.report["status"] = {"mode": spec.mode, "exit_code": exit_code, "failed": failed}
        return self.report

    def _caputo(self):
        if self.spec.alpha < 1.0:
            checklib.caputo_checks(self.suite)

    def _geometry(self):
        spec = self.spec
        self.bundle = build_geometry(
            LagrangianSpec(L=spec.lagrangian, ctx=spec.ctx, regularity_points=spec.sample_points)
        )
        self.report["geometry"] = _geometry_section(self.bundle)
        # the one Wick algebra of the run, shared by the algebra checks
        self.machine = FedosovMachine(self.bundle)

    def _algebra(self):
        checklib.algebra_checks(self.suite, self.machine, self.spec.seed)

    def _geometry_checks(self):
        checklib.geometry_checks(
            self.suite, self.bundle, self.spec.sample_points, self.scalar_probes
        )

    def _recursion(self):
        k = max(self.spec.truncation_order, 2 * self.star_order - 1)
        self.state = state = self.machine.solve_r(k)
        self.report["fedosov"] = {
            "truncation_order": k,
            "r_residuals": {str(d): v for d, v in sorted(state.residuals.items())},
            "r_term_counts": {
                str(d): len(state.r_components[d].terms) for d in sorted(state.r_components)
            },
            "gauge_residual": state.gauge_residual(),
        }

    def _fedosov_checks(self):
        spec = self.spec
        probes = make_probes(self.bundle, seed=spec.seed, count=8)
        checklib.fedosov_checks(self.suite, self.machine, self.state, spec.sample_points, probes)

    def _star(self):
        f, g = self.spec.observable_f, self.spec.observable_g
        self.star_coeffs = star(f, g, self.state, self.star_order)
        self.report["star"] = {
            "order": self.star_order,
            "f": reportlib.signomial_terms(f),
            "g": reportlib.signomial_terms(g),
            "coefficients": [
                {"r": r, "terms": reportlib.star_terms(c)} for r, c in enumerate(self.star_coeffs)
            ],
        }

    def _star_checks(self):
        spec = self.spec
        checklib.star_checks(
            self.suite, self.state, spec.observable_f, spec.observable_g, self.star_coeffs,
            spec.sample_points,
        )

    def _chern(self):
        forms = checklib.chern_checks(
            self.suite, self.bundle, self.machine, self.spec.sample_points, self.scalar_probes
        )
        chern = {name: reportlib.form_components(form) for name, form in sorted(forms.items())}
        chern["note"] = (
            "c0 entry is the representative 2-form -(1/(2i)) gamma; no cohomology "
            "class extraction is performed"
        )
        self.report["chern"] = chern


def run_pipeline(spec: RunSpec, pipeline: Pipeline | None = None) -> dict:
    """Run every stage and return the report.

    A computation failure propagates as an EngineError; ``pipeline``, when
    given, then holds the sections finished before it.
    """
    return (pipeline or Pipeline(spec)).run(STAGES)


def _emit(report: dict, fmt: str, out_path: str | None, stream) -> None:
    if fmt == "json":
        text = reportlib.emit_json(report).decode("utf-8")
    else:
        text = reportlib.emit_text(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        stream.write(text)


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
    args = build_parser().parse_args(argv)
    try:
        spec = parse_config(args.config)
        if args.command == "run" and args.order is not None:
            if args.order < 2:
                _fail("--order", "truncation order must be an integer >= 2")
            spec = parse_config_dict(dict(spec.canonical, truncation_order=args.order))
        if args.command == "run" and args.out:
            # fail before the pipeline runs; append mode keeps an existing file
            try:
                open(args.out, "a").close()
            except OSError as err:
                _fail("--out", f"cannot write the report: {err}")
        if args.command == "star" and args.order is not None and args.order < 0:
            _fail("--order", "order must be nonnegative")
        if args.command == "check" and args.group == "caputo" and spec.alpha >= 1.0:
            _fail("/alpha", "the caputo check needs a fractional alpha")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    pipeline = Pipeline(spec, star_order=args.order if args.command == "star" else None)
    try:
        if args.command == "run":
            report = run_pipeline(spec, pipeline)
        elif args.command == "check":
            report = pipeline.run(CHECK_STAGES[args.group])
        else:
            report = pipeline.run(STAR_STAGES)
    except EngineError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        report = pipeline.finish(err)

    if args.command == "run":
        _emit(report, args.format, args.out, stream)
    elif args.command == "check":
        for entry in report["checks"]:
            stream.write(reportlib.check_line(entry) + "\n")
    elif "star" in report:
        stream.write(reportlib.emit_json(report["star"]).decode("utf-8"))
    return report["status"]["exit_code"]


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
