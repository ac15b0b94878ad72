"""Span tracing of the engine's public functions, installed from outside.

``install()`` wraps the functions and methods listed in ``TARGETS``.  A
module-level function is replaced in every ``akstar`` module that holds it,
because several modules import functions by name (``checks`` imports
``tau_lift``, ``star`` and ``sigma_series`` that way).

Every wrapped call is a span.  Per span name the tracer keeps the call
count, the inclusive time of the outermost calls (recursion is not counted
twice) and the self time: the span's duration minus the time its child
spans cover.  Spans of the ``expr`` kernel run hundreds of thousands of
times per invocation, so they are only aggregated; every other span is also
kept as a ``(name, start, end, parent)`` record.  Everything stays in
memory until ``snapshot()``.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute path); the layer is the text before the dot
TARGETS = (
    ("cli.main", "akstar.cli", "main"),
    ("cli.parse_config", "akstar.cli", "parse_config"),
    ("cli.run_pipeline", "akstar.cli", "run_pipeline"),
    ("expr.add", "akstar.expr", "Signomial.__add__"),
    ("expr.mul", "akstar.expr", "Signomial.__mul__"),
    ("expr.mul", "akstar.expr", "Signomial.__rmul__"),
    ("expr.scale", "akstar.expr", "Signomial.scale"),
    ("expr.partial", "akstar.expr", "Signomial.partial"),
    ("expr.caputo", "akstar.expr", "Signomial.caputo"),
    ("expr.eval_at", "akstar.expr", "Signomial.eval_at"),
    ("caputo_quad.power_rule_residual", "akstar.caputo_quad", "power_rule_residual"),
    ("caputo_quad.caputo_quad", "akstar.caputo_quad", "caputo_quad"),
    ("geometry.build_geometry", "akstar.geometry", "build_geometry"),
    ("geometry.poisson_bracket", "akstar.geometry", "poisson_bracket"),
    ("geometry.metric_compat_residual", "akstar.geometry", "metric_compat_residual"),
    ("geometry.jcompat_residual", "akstar.geometry", "jcompat_residual"),
    ("geometry.theta_compat_residual", "akstar.geometry", "theta_compat_residual"),
    ("geometry.matrix_inverse_residual", "akstar.geometry", "matrix_inverse_residual"),
    ("geometry.j_squared_residual", "akstar.geometry", "j_squared_residual"),
    ("geometry.torsion_pure_blocks_residual", "akstar.geometry", "torsion_pure_blocks_residual"),
    ("geometry.curvature_antisymmetry_residual", "akstar.geometry", "curvature_antisymmetry_residual"),
    ("geometry.acp_residual", "akstar.geometry", "acp_residual"),
    ("geometry.anholonomy_residual", "akstar.geometry", "anholonomy_residual"),
    ("geometry.nijenhuis_residual", "akstar.geometry", "nijenhuis_residual"),
    ("wick.product", "akstar.wick", "WickAlgebra.product"),
    ("wick.commutator", "akstar.wick", "WickAlgebra.commutator"),
    ("fedosov.delta", "akstar.fedosov", "delta"),
    ("fedosov.delta_inv", "akstar.fedosov", "delta_inv"),
    ("fedosov.sigma", "akstar.fedosov", "sigma"),
    ("fedosov.sigma_series", "akstar.fedosov", "sigma_series"),
    ("fedosov.dconn_apply", "akstar.fedosov", "FedosovMachine.dconn_apply"),
    ("fedosov.solve_r", "akstar.fedosov", "FedosovMachine.solve_r"),
    ("fedosov.flat_d", "akstar.fedosov", "flat_d"),
    ("fedosov.flat_d_squared_residual", "akstar.fedosov", "flat_d_squared_residual"),
    ("fedosov.tau_lift", "akstar.fedosov", "tau_lift"),
    ("fedosov.flat_section_residual", "akstar.fedosov", "flat_section_residual"),
    ("fedosov.star", "akstar.fedosov", "star"),
    ("fedosov.star_series", "akstar.fedosov", "star_series"),
    ("checks.caputo", "akstar.checks", "caputo_checks"),
    ("checks.algebra", "akstar.checks", "algebra_checks"),
    ("checks.geometry", "akstar.checks", "geometry_checks"),
    ("checks.fedosov", "akstar.checks", "fedosov_checks"),
    ("checks.star", "akstar.checks", "star_checks"),
    ("checks.chern", "akstar.checks", "chern_checks"),
    ("chern.exterior_derivative", "akstar.chern", "exterior_derivative"),
    ("chern.chern_weyl", "akstar.chern", "chern_weyl"),
    ("chern.lemma_forms", "akstar.chern", "lemma_forms"),
    ("report.emit_json", "akstar.report", "emit_json"),
)

AGGREGATE_ONLY_LAYERS = ("expr",)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Span stack, per-name and per-layer statistics, and work counters."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layers: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list = []
        self._names: list[str] = []
        self._stack: list = []
        self.seen_lifts: set = set()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def active(self, name: str) -> bool:
        stat = self.stats.get(name)
        return stat is not None and stat.active > 0

    def wrap(self, fn, name: str, hook=None):
        stat = self.stats.setdefault(name, Stat())
        layer = self.layers.setdefault(name.split(".", 1)[0], Stat())
        keep = name.split(".", 1)[0] not in AGGREGATE_ONLY_LAYERS
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [parent, 0.0]
            if keep:
                frame[0] = len(spans)
                spans.append(None)
            stack.append(frame)
            stat.active += 1
            layer.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                layer.active -= 1
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[1]
                layer.self_s += dur - frame[1]
                if not stat.active:
                    stat.total_s += dur
                if not layer.active:
                    layer.total_s += dur
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans[frame[0]] = (name_id, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        from akstar import expr

        info = expr.power_rule_factor.cache_info()
        return {
            "stats": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()
            },
            "layers": {
                name: {"total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.layers.items()
            },
            "counters": dict(
                self.counters,
                **{
                    "expr.power_rule_factor.hits": info.hits,
                    "expr.power_rule_factor.misses": info.misses,
                },
            ),
        }

    def span_records(self) -> dict:
        return {"names": self._names, "spans": self.spans}


# -- work counters, recorded where the work happens -------------------------


def _count_add(tr, args, result):
    tr.count("expr.add.terms_in", len(args[0].terms) + len(args[1].terms))


def _count_product(tr, args, result):
    _, x, y = args
    tr.count("wick.product.term_pairs", len(x.terms) * len(y.terms))
    tr.count("wick.product.terms_out", len(result.terms))


def _count_sigma(tr, args, result):
    # sigma inside star() projects the product tau(f) o tau(g)
    if tr.active("fedosov.star"):
        tr.count("fedosov.star.product_terms", len(args[0].terms))
        tr.count("fedosov.star.sigma_kept", len(result.terms))


def _count_lift(tr, args, result):
    f, state, order = args
    key = (id(state), order, tuple(sorted(f.terms.items())))
    if key in tr.seen_lifts:
        tr.count("fedosov.tau_lift.repeats")
    tr.seen_lifts.add(key)


def _count_r_terms(tr, args, result):
    tr.count("fedosov.r_terms", sum(len(c.terms) for c in result.r_components.values()))


def _count_report_bytes(tr, args, result):
    tr.count("report.bytes", len(result))


HOOKS = {
    "expr.add": _count_add,
    "wick.product": _count_product,
    "fedosov.sigma": _count_sigma,
    "fedosov.tau_lift": _count_lift,
    "fedosov.solve_r": _count_r_terms,
    "report.emit_json": _count_report_bytes,
}


def install() -> Tracer:
    """Wrap every target; import ``akstar.cli`` first so all modules exist."""
    import akstar.cli  # noqa: F401  (loads every engine module)

    tracer = Tracer()
    engine = [m for n, m in sys.modules.items() if n == "akstar" or n.startswith("akstar.")]
    for name, module, path in TARGETS:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        traced = tracer.wrap(original, name, HOOKS.get(name))
        if outer:
            setattr(owner, attr, traced)
            continue
        for mod in engine:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    return tracer
