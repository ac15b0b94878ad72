"""akstar benchmark: runs a workload through the CLI and checks every output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the engine is imported from
``src/``.  Each engine invocation is a fresh interpreter calling
``akstar.cli.main`` (see invoke.py), one at a time.  Generated configs,
outputs and traces go to ``.perfbench_work/<workload>/``.

With ``--trace 0`` the workload is repeated, whole passes at a time, for
about ``--seconds`` seconds, and the end-to-end metrics are medians over the
passes, with times rescaled to the speed probe's reference speed (probe.py).
With ``--trace 1`` one untraced pass and one traced pass run, and
the per-layer metrics come from the traced one.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import probe
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "invoke.py"
REFERENCE_DIR = HERE / "reference"

# every invocation must end within this many seconds of the benchmark's start
DEADLINE_S = 165.0
# setup-only launches bring setup_s up to this many samples
SETUP_SAMPLES = 11

LAYERS = ("cli", "expr", "caputo_quad", "geometry", "wick", "fedosov", "checks", "chern", "report")


@dataclass
class Launch:
    # times exclude the speed probe's own samples; the norm_ times are
    # rescaled to the probe's reference speed (0 when no probe ran, as when
    # tracing)
    wall_s: float = 0.0
    norm_s: float = 0.0
    setup_s: float = 0.0
    norm_setup_s: float = 0.0
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    trace: dict | None = None


@dataclass
class Pass:
    launches: list
    duration_s: float

    @property
    def wall_s(self) -> float:
        return sum(x.wall_s for x in self.launches)

    @property
    def norm_s(self) -> float:
        return sum(x.norm_s for x in self.launches)

    @property
    def setup_s(self) -> float:
        return sum(x.setup_s for x in self.launches)

    @property
    def norm_setup_s(self) -> float:
        return sum(x.norm_setup_s for x in self.launches)

    @property
    def rss_mb(self) -> float:
        return max(x.rss_mb for x in self.launches)



def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # one process at a time and no extra threads
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Launches invocations of one workload and verifies their outputs."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.invocations = workloads.invocations(workload, seed)
        with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)["invocations"]
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        for inv in self.invocations:
            with open(work / f"{inv.name}.json", "w", encoding="utf-8") as fh:
                json.dump(inv.config, fh)

    def launch(self, inv, mode: str) -> Launch:
        config = self.work / f"{inv.name}.json"
        out = self.work / f"{inv.name}.{mode}.out"
        meta_path = self.work / f"{inv.name}.{mode}.meta"
        for path in (out, meta_path):
            path.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), mode, str(config), str(out), str(meta_path), *inv.command]
        result = Launch()
        start = time.monotonic()
        if start >= self.deadline:
            result.problems.append("not started: the benchmark's deadline has passed")
            return result
        try:
            proc = subprocess.run(
                argv,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=self.deadline - start,
            )
        except subprocess.TimeoutExpired:
            result.problems.append("timed out")
            result.wall_s = time.monotonic() - start
            return result
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            result.problems.append(f"exit {proc.returncode} without a result: {tail}")
            result.wall_s = time.monotonic() - start
            return result
        if mode == "setup":
            if proc.returncode != 0:
                result.problems.append(f"setup exit {proc.returncode}")
        else:
            output = out.read_text(encoding="utf-8") if out.exists() else ""
            result.problems.extend(verify.compare(self.reference[inv.name], proc.returncode, output))
        probes = meta["probe_s"]
        result.wall_s = time.monotonic() - start - sum(probes)
        if meta["setup_done"] is None:
            result.problems.append("the config was never parsed")
            return result
        in_setup = probes[: meta["probes_in_setup"]]
        result.setup_s = meta["setup_done"] - start - sum(in_setup)
        if probes:
            result.norm_s = probe.at_reference_speed(result.wall_s, probes)
            result.norm_setup_s = probe.at_reference_speed(result.setup_s, in_setup)
        result.rss_mb = meta["maxrss_kb"] / 1024.0
        result.trace = meta.get("trace")
        return result

    def run_pass(self, mode: str) -> Pass:
        start = time.monotonic()
        launches = [self.launch(inv, mode) for inv in self.invocations]
        return Pass(launches, time.monotonic() - start)


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(runner: Runner, seconds: float, launch_s: float) -> tuple:
    """Whole passes for about ``seconds``, then setup-only passes in the rest.

    Whole passes repeat while the next one, taking as long as the last,
    ends within ``seconds`` of the start; there is always at least one.
    Setup-only passes then fill the time left, up to ``SETUP_SAMPLES``
    setup samples in all.  ``launch_s``, the duration of one setup-only
    launch, estimates the first of them.
    """
    start = time.monotonic()
    limit = min(seconds, runner.deadline - start)
    passes = [runner.run_pass("run")]
    while time.monotonic() - start + passes[-1].duration_s <= limit:
        passes.append(runner.run_pass("run"))
    setup_passes = []
    estimate = launch_s * len(runner.invocations)
    while (
        len(passes) + len(setup_passes) < SETUP_SAMPLES
        and time.monotonic() - start + estimate <= limit
    ):
        setup_passes.append(runner.run_pass("setup"))
        estimate = setup_passes[-1].duration_s
    return passes, setup_passes, [p.norm_setup_s for p in passes + setup_passes]


def end_to_end(passes: list, setup_samples: list) -> dict:
    return {
        "norm_wall_s": {"value": statistics.median(p.norm_s for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p.rss_mb for p in passes), "unit": "MB"},
    }


def merge_traces(traces: list) -> dict:
    merged = {"stats": {}, "layers": {}, "counters": {}}
    for trace in traces:
        for group in ("stats", "layers"):
            for name, values in trace[group].items():
                slot = merged[group].setdefault(name, dict.fromkeys(values, 0))
                for key, value in values.items():
                    slot[key] += value
        for name, value in trace["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged


def per_layer(trace: dict) -> dict:
    stats, layers, count = trace["stats"], trace["layers"], trace["counters"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def secs(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    hits = count.get("expr.power_rule_factor.hits", 0)
    lookups = hits + count.get("expr.power_rule_factor.misses", 0)
    m = {f"{layer}.self_s": (layers.get(layer, {}).get("self_s", 0.0), "s") for layer in LAYERS}
    m.update({
        "cli.parse_config.s": (secs("cli.parse_config"), "s"),
        "expr.mul.calls": (calls("expr.mul"), "count"),
        "expr.add.calls": (calls("expr.add"), "count"),
        "expr.add.terms_in": (count.get("expr.add.terms_in", 0), "count"),
        "expr.caputo.calls": (calls("expr.caputo"), "count"),
        "expr.power_rule_factor.lookups": (lookups, "count"),
        "expr.power_rule_factor.hit_ratio": (ratio(hits, lookups), "ratio"),
        "caputo_quad.s": (layers.get("caputo_quad", {}).get("total_s", 0.0), "s"),
        "geometry.build_geometry.s": (secs("geometry.build_geometry"), "s"),
        "wick.product.calls": (calls("wick.product"), "count"),
        "wick.product.s": (secs("wick.product"), "s"),
        "wick.product.term_pairs": (count.get("wick.product.term_pairs", 0), "count"),
        "wick.product.terms_out": (count.get("wick.product.terms_out", 0), "count"),
        "wick.commutator.calls": (calls("wick.commutator"), "count"),
        "wick.commutator.s": (secs("wick.commutator"), "s"),
        "fedosov.solve_r.s": (secs("fedosov.solve_r"), "s"),
        "fedosov.r_terms": (count.get("fedosov.r_terms", 0), "count"),
        "fedosov.tau_lift.calls": (calls("fedosov.tau_lift"), "count"),
        "fedosov.tau_lift.s": (secs("fedosov.tau_lift"), "s"),
        "fedosov.tau_lift.repeat_ratio": (
            ratio(count.get("fedosov.tau_lift.repeats", 0), calls("fedosov.tau_lift")),
            "ratio",
        ),
        "fedosov.star.calls": (calls("fedosov.star"), "count"),
        "fedosov.star.s": (secs("fedosov.star"), "s"),
        "fedosov.star.product_terms": (count.get("fedosov.star.product_terms", 0), "count"),
        "fedosov.star.sigma_kept_ratio": (
            ratio(count.get("fedosov.star.sigma_kept", 0), count.get("fedosov.star.product_terms", 0)),
            "ratio",
        ),
        "fedosov.delta.s": (secs("fedosov.delta"), "s"),
        "fedosov.delta_inv.s": (secs("fedosov.delta_inv"), "s"),
        "fedosov.dconn_apply.calls": (calls("fedosov.dconn_apply"), "count"),
        "fedosov.dconn_apply.s": (secs("fedosov.dconn_apply"), "s"),
        "fedosov.flat_d_squared_residual.s": (secs("fedosov.flat_d_squared_residual"), "s"),
        "fedosov.flat_section_residual.s": (secs("fedosov.flat_section_residual"), "s"),
        "checks.caputo.s": (secs("checks.caputo"), "s"),
        "checks.algebra.s": (secs("checks.algebra"), "s"),
        "checks.geometry.s": (secs("checks.geometry"), "s"),
        "checks.fedosov.s": (secs("checks.fedosov"), "s"),
        "checks.star.s": (secs("checks.star"), "s"),
        "checks.chern.s": (secs("checks.chern"), "s"),
        "chern.exterior_derivative.s": (secs("chern.exterior_derivative"), "s"),
        "report.emit_json.s": (secs("report.emit_json"), "s"),
        "report.bytes": (count.get("report.bytes", 0), "bytes"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def traced(runner: Runner) -> tuple:
    """One untraced pass, then one traced pass for the per-layer metrics."""
    plain = runner.run_pass("run")
    tpass = runner.run_pass("trace")
    metrics = per_layer(merge_traces([x.trace for x in tpass.launches if x.trace]))
    metrics["trace.wall_s"] = {"value": tpass.wall_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": tpass.wall_s - plain.wall_s, "unit": "s"}
    return [plain, tpass], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    start = time.monotonic()
    if not (ROOT / "src" / "akstar" / "cli.py").is_file():
        print(f"benchmark error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, start + DEADLINE_S)
    # compiles bytecode and fills the file cache before anything is timed
    warm = runner.launch(runner.invocations[0], "setup")

    if args.trace:
        passes, metrics = traced(runner)
        launches = [x for p in passes for x in p.launches]
        samples = {"wall_s": [p.wall_s for p in passes]}
    else:
        passes, extra, setup_samples = measure(runner, args.seconds, warm.wall_s)
        metrics = end_to_end(passes, setup_samples)
        launches = [x for p in passes + extra for x in p.launches]
        samples = {
            "wall_s": [p.wall_s for p in passes],
            "norm_wall_s": [p.norm_s for p in passes],
            "raw_setup_s": [p.setup_s for p in passes + extra],
            "setup_s": setup_samples,
            "peak_rss_mb": [p.rss_mb for p in passes],
        }

    failed = sum(1 for x in launches if x.problems)
    for i, x in enumerate(launches):
        for problem in x.problems:
            print(f"FAILED launch {i}: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name in ("wall_s", "raw_setup_s"):
            print(f"{name} {statistics.median(samples[name]):.6g} s (not rescaled)")
    print(f"fail_rate {failed / len(launches):.6g} share ({failed} of {len(launches)} launches)")
    print(f"passes {len(passes)}  elapsed {time.monotonic() - start:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": len(launches),
        "failed": failed,
        "metrics": metrics,
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, seed=args.seed, trace=args.trace, samples=samples), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
