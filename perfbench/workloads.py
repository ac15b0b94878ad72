"""Benchmark workloads: each one is a list of engine invocations.

An invocation is one ``akstar`` subcommand on one generated config file.
The workload seed only fills the config's ``seed`` field, which the engine
uses for its random probes and random algebra elements; everything else in
a workload is fixed, so the star coefficients, the recursion term counts
and the abort points do not depend on the seed.  README.md in this
directory gives the reason for each workload.

``x2y3_run`` keeps the config seed at the default 7 whatever the workload
seed: its eight D-hat^2 probes dominate the run, and their cost changes
4.6-fold between config seeds (2.7 s to 12.5 s of CPU over seeds 0-13), so
a varying seed would measure the probe draw rather than the engine.  Seed 7
sits at the median of that range.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Invocation:
    """One engine call: ``akstar <command...> --config <file made from config>``."""

    name: str
    command: tuple
    config: dict


def _term(c, exp):
    return {"c": c, "exp": exp}


def _config(alpha: float, n: int, lagrangian: list, order: int, seed: int) -> dict:
    # default observables (f = x^1, g = y^1) and default sample points
    return {
        "alpha": alpha,
        "n": n,
        "lagrangian": lagrangian,
        "truncation_order": order,
        "mode": "diagnostic",
        "seed": seed,
    }


X2Y3 = [_term(1, [2, 3])]
# W4 of the roadmap ladder: x1^2 x2 y1^3 + x1 x2 y2^2 over (x1, x2, y1, y2)
W4 = [_term(1, [2, 1, 3, 0]), _term(1, [1, 1, 0, 2])]

SWEEP_LAGRANGIANS = (
    ("x2y2", 1, [_term(1, [2, 2])]),
    ("x2y3", 1, X2Y3),
    ("sq2", 2, [_term(1, [2, 0, 2, 0]), _term(1, [0, 2, 0, 2])]),
    ("y2p5", 1, [_term(1, [0, 2.5])]),
)
# alpha = 0.5 is left out on purpose: its Gamma pole is the known-red
# acceptance criterion 7, while 0.6 and 0.75 give genuine poles that the
# engine reports with exit 2
SWEEP_ALPHAS = (0.3, 0.45, 0.6, 0.75, 0.9)


def _x2y3_run(seed: int) -> list:
    return [Invocation("x2y3", ("run",), _config(1.0, 1, X2Y3, 5, DEFAULT_SEED))]


def _w4_star(seed: int) -> list:
    return [Invocation("w4", ("star", "--order", "2"), _config(1.0, 2, W4, 3, seed))]


def _frac_sweep(seed: int) -> list:
    return [
        Invocation(f"{name}_a{alpha}", ("run",), _config(alpha, n, lag, 3, seed))
        for name, n, lag in SWEEP_LAGRANGIANS
        for alpha in SWEEP_ALPHAS
    ]


WORKLOADS = {
    "x2y3_run": _x2y3_run,
    "w4_star": _w4_star,
    "frac_sweep": _frac_sweep,
}


def invocations(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
