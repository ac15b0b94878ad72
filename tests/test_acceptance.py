"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.

Criterion 7 is known-red: at alpha = 1/2 the flatness recursion leaves the
signomial class whose Caputo derivatives exist (the degree-3 right side
carries a coefficient with fiber exponent exactly -1, forced by two twist
contractions whose alpha dependence cancels), so the prescribed pipeline
aborts with the documented fractional-domain error instead of completing.
The test asserts the criterion as stated and therefore fails; the
surrounding machinery (same pipeline at neighbouring alpha) is exercised
and green elsewhere in the suite.
"""

import io
import json
import time

import numpy as np
import pytest

from akstar.caputo_quad import power_rule_residual
from akstar.chern import chern_weyl, curvature_trace, exterior_derivative, lemma_forms
from akstar.cli import (
    EXIT_CHECK_FAILED,
    EXIT_COMPUTE_ERROR,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
    parse_config_dict,
    run_pipeline,
)
from akstar.errors import EngineError
from akstar.expr import Signomial, coeff_distance
from akstar.fedosov import (
    FedosovMachine,
    delta,
    delta_inv,
    flat_d_squared_residual,
    make_probes,
    sigma,
    sigma_series,
    star,
    star_series,
    tau_lift,
)
from akstar.geometry import (
    j_squared_residual,
    jcompat_residual,
    matrix_inverse_residual,
    metric_compat_residual,
    nijenhuis_residual,
    poisson_bracket,
    theta_compat_residual,
    torsion_pure_blocks_residual,
)
from akstar.report import emit_json
from akstar.wick import WickAlgebra, WickElement

from _configs import make_bundle, sample_points

ALL_ALPHAS = (0.3, 0.5, 0.9, 1.0)


def report_line(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_caputo_power_rule_vs_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 3.7):
        for alpha in (0.3, 0.5, 0.9):
            for x in (0.5, 1.0, 2.0):
                worst = max(worst, power_rule_residual(p, alpha, x))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    report_line(1, ok, f"power rule vs quadrature, worst rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-6
    assert elapsed < 5.0


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_algebraic_identity_suite():
    t0 = time.monotonic()
    worst = {"dsq": 0.0, "hodge": 0.0, "deriv": 0.0, "assoc": 0.0, "jacobi": 0.0}
    for alpha in ALL_ALPHAS:
        bundle = make_bundle("flat", 1, alpha)
        alg = WickAlgebra(bundle.lam)
        rng = np.random.default_rng(int(alpha * 1000) + 17)
        for _ in range(25):  # 25 x 4 alphas = 100 seeded elements
            elems = []
            for _ in range(3):
                w = WickElement.zero(2)
                for _ in range(int(rng.integers(1, 4))):
                    v = int(rng.integers(0, 2))
                    z = [0, 0]
                    for _ in range(int(rng.integers(0, 4))):
                        z[int(rng.integers(2))] += 1
                    nf = int(rng.integers(0, 3))
                    forms = tuple(sorted(rng.choice(2, size=nf, replace=False).tolist()))
                    coeff = Signomial.monomial(
                        2,
                        complex(rng.normal(), rng.normal()),
                        [0.5 * int(rng.integers(3)), 0.5 * int(rng.integers(3))],
                    )
                    w = w + WickElement.from_term(2, v, tuple(z), forms, coeff)
                elems.append(w)
            a, b, c = elems
            worst["dsq"] = max(worst["dsq"], delta(delta(a)).coeff_norm())
            back = delta(delta_inv(a)) + delta_inv(delta(a)) + sigma(a)
            worst["hodge"] = max(worst["hodge"], (back - a).coeff_norm())
            ae, ao = a.split_form_parity()
            for part, sign in ((ae, 1.0), (ao, -1.0)):
                if part.is_zero:
                    continue
                lhs = delta(alg.product(part, b))
                rhs = alg.product(delta(part), b) + alg.product(part, delta(b)).scale(sign)
                worst["deriv"] = max(worst["deriv"], (lhs - rhs).coeff_norm())
            left = alg.product(alg.product(a, b), c)
            right = alg.product(a, alg.product(b, c))
            worst["assoc"] = max(worst["assoc"], (left - right).coeff_norm())
            parts = []
            for e in (a, b, c):
                ee, eo = e.split_form_parity()
                parts.append(ee if not ee.is_zero else eo)
            ps = [
                0 if not p.terms or len(next(iter(p.terms))[2]) % 2 == 0 else 1
                for p in parts
            ]
            t1 = alg.commutator(parts[0], alg.commutator(parts[1], parts[2])).scale(
                (-1.0) ** (ps[0] * ps[2])
            )
            t2 = alg.commutator(parts[1], alg.commutator(parts[2], parts[0])).scale(
                (-1.0) ** (ps[1] * ps[0])
            )
            t3 = alg.commutator(parts[2], alg.commutator(parts[0], parts[1])).scale(
                (-1.0) ** (ps[2] * ps[1])
            )
            worst["jacobi"] = max(worst["jacobi"], (t1 + t2 + t3).coeff_norm())
    elapsed = time.monotonic() - t0
    top = max(worst.values())
    ok = top < 1e-12 and elapsed < 10.0
    report_line(2, ok, f"algebraic suite over alpha {ALL_ALPHAS}, worst {top:.2e}, {elapsed:.2f} s")
    for name, val in worst.items():
        assert val < 1e-12, name
    assert elapsed < 10.0


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_exact_geometric_compatibilities():
    worst = 0.0
    for alpha in ALL_ALPHAS:
        for kind in ("flat", "coupled"):
            for n in (1, 2):
                b = make_bundle(kind, n, alpha)
                scale = max(1.0, b.g_lower[0][0].max_abs_coeff())
                worst = max(
                    worst,
                    metric_compat_residual(b) / scale,
                    jcompat_residual(b),
                    matrix_inverse_residual(b),
                    j_squared_residual(b),
                    theta_compat_residual(b),
                    torsion_pure_blocks_residual(b),
                )
    ok = worst <= 1e-12
    report_line(3, ok, f"term-level compatibilities over all alpha, worst {worst:.2e}")
    assert worst <= 1e-12


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_integer_limit_operator_suite():
    t0 = time.monotonic()
    worst = 0.0
    for kind in ("flat", "coupled"):
        for n in (1, 2):
            b = make_bundle(kind, n, 1.0)
            pts = sample_points(n)
            m = FedosovMachine(b)
            for probe in make_probes(b, seed=42, count=8):
                worst = max(worst, m.comf_delta_residual(probe, pts))
                worst = max(worst, m.comf_dsq_residual(probe, pts))
            worst = max(worst, m.delta_torsion_residual(pts))
            worst = max(worst, m.delta_curvature_residual(pts))
            worst = max(worst, nijenhuis_residual(b, pts))
            gamma = chern_weyl(b, curvature_trace(b))
            worst = max(worst, exterior_derivative(gamma, m).sample_norm(pts))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report_line(4, ok, f"integer-limit operator suite, worst {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-8
    assert elapsed < 30.0


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_fedosov_flatness():
    t0 = time.monotonic()
    b = make_bundle("coupled", 2, 1.0)
    state = FedosovMachine(b).solve_r(4)
    res = state.max_residual()
    probes = make_probes(b, seed=42, count=8)
    # include a top-degree probe so the bound Deg(a) + K - 1 reaches 6
    z = [0] * 4
    z[3] = 3
    probes.append(WickElement.from_term(4, 0, tuple(z), (0,), Signomial.constant(4, 1.0)))
    dsq = max(flat_d_squared_residual(p, state, sample_points(2)) for p in probes)
    elapsed = time.monotonic() - t0
    ok = res < 1e-9 and dsq < 1e-8 and elapsed < 60.0
    report_line(
        5, ok, f"flatness recursion K=4 n=2, r residual {res:.2e}, Dsq {dsq:.2e}, {elapsed:.2f} s"
    )
    assert res < 1e-9
    assert dsq < 1e-8
    assert elapsed < 60.0


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_star_product_axioms():
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    obs = (x, y, x * x, x * y)
    worst_assoc = 0.0
    worst_c1 = 0.0
    for kind in ("flat", "coupled"):
        b = make_bundle(kind, 1, 1.0)
        st = FedosovMachine(b).solve_r(7)
        assert st.max_residual() <= 1e-9
        pts = sample_points(1)
        cache = {}

        def cached_star(i, f, j, g, order, _st=st, _cache=cache):
            key = (i, j, order)
            if key not in _cache:
                _cache[key] = star(f, g, _st, order)
            return _cache[key]

        for i, f in enumerate(obs):
            for j, g in enumerate(obs):
                fg = cached_star(i, f, j, g, 4)
                assert coeff_distance(fg[0], f * g) == 0.0  # C_0 exact
                gf = cached_star(j, g, i, f, 4)
                anti = fg[1] - gf[1]
                diff = anti - poisson_bracket(f, g, b).scale(1j)
                if not diff.is_zero:
                    worst_c1 = max(worst_c1, max(abs(diff.eval_at(p)) for p in pts))
        # unit neutrality to all computed orders
        one = Signomial.constant(2, 1.0)
        for f in obs:
            left = star(one, f, st, 4)
            right = star(f, one, st, 4)
            assert coeff_distance(left[0], f) == 0.0
            assert coeff_distance(right[0], f) == 0.0
            for r in range(1, 5):
                assert left[r].is_zero and right[r].is_zero
        # associativity through v^4
        for i, f in enumerate(obs):
            for j, g in enumerate(obs):
                for k, h in enumerate(obs):
                    left = star_series(cached_star(i, f, j, g, 4), (h,), st, 4)
                    right = star_series((f,), cached_star(j, g, k, h, 4), st, 4)
                    for s in range(5):
                        d = left[s] - right[s]
                        if not d.is_zero:
                            worst_assoc = max(
                                worst_assoc, max(abs(d.eval_at(p)) for p in pts)
                            )
    # flat-configuration commutator is exactly iv at first order
    st_flat = FedosovMachine(make_bundle("flat", 1, 1.0)).solve_r(3)
    assert st_flat.max_residual() <= 1e-9
    fwd = star(x, y, st_flat, 1)
    rev = star(y, x, st_flat, 1)
    comm_exact = (fwd[1] - rev[1]).terms == {(0.0, 0.0): 1j}
    ok = worst_c1 < 1e-8 and worst_assoc < 1e-8 and comm_exact
    report_line(
        6,
        ok,
        f"star axioms: C1 bracket {worst_c1:.2e}, assoc v^4 {worst_assoc:.2e}, "
        f"flat commutator iv exact {comm_exact}",
    )
    assert worst_c1 < 1e-8
    assert worst_assoc < 1e-8
    assert comm_exact


# -- criterion 7 (known red: see module docstring) ----------------------------


def test_criterion_7_fractional_end_to_end():
    t0 = time.monotonic()
    failures = []
    for lag in ([{"c": 1, "exp": [0, 2]}], [{"c": 1, "exp": [2, 2]}]):
        cfg = {
            "alpha": 0.5,
            "n": 1,
            "lagrangian": lag,
            "truncation_order": 3,
            "mode": "diagnostic",
            "seed": 5,
        }
        spec = parse_config_dict(cfg)
        try:
            rep = run_pipeline(spec)
        except EngineError as err:
            failures.append(f"{lag}: pipeline aborted with {type(err).__name__}: {err}")
            continue
        c0 = rep["star"]["coefficients"][0]
        if rep["status"]["exit_code"] != EXIT_OK:
            failures.append(f"{lag}: exit {rep['status']['exit_code']}")
        if any(v is None or not np.isfinite(v) for v in rep["fedosov"]["r_residuals"].values()):
            failures.append(f"{lag}: non-finite residual diagnostics")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    report_line(
        7,
        ok,
        "fractional end-to-end at alpha = 0.5"
        if ok
        else "alpha = 0.5 recursion leaves the differentiable signomial class at "
        "total degree 3 (fiber exponent -1 under the Caputo power rule); "
        + " | ".join(failures),
    )
    assert not failures, failures
    assert elapsed < 60.0


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_chern_layer():
    b_flat = make_bundle("flat", 1, 1.0)
    gamma = chern_weyl(b_flat, curvature_trace(b_flat))
    mu, lam, kappa = lemma_forms(FedosovMachine(b_flat), curvature_trace(b_flat))
    flat_zero = (
        gamma.is_zero and mu.is_zero and lam.is_zero and kappa.is_zero
    )
    b = make_bundle("coupled", 1, 1.0)
    pts = sample_points(1)
    gamma = chern_weyl(b, curvature_trace(b))
    dgamma = exterior_derivative(gamma, FedosovMachine(b)).sample_norm(pts)
    worst_kappa = 0.0
    for kind, n, alpha in (("coupled", 1, 1.0), ("coupled", 1, 0.5), ("flat", 1, 0.5)):
        bb = make_bundle(kind, n, alpha)
        g2 = chern_weyl(bb, curvature_trace(bb))
        m2, l2, k2 = lemma_forms(FedosovMachine(bb), curvature_trace(bb))
        resid = (k2 + l2.scale(1j) - g2.scale(0.5j)).sample_norm(sample_points(n))
        worst_kappa = max(worst_kappa, resid)
    ok = flat_zero and dgamma < 1e-8 and worst_kappa < 1e-8
    report_line(
        8,
        ok,
        f"chern layer: flat zeros {flat_zero}, d gamma {dgamma:.2e}, "
        f"assembly identity {worst_kappa:.2e}",
    )
    assert flat_zero
    assert dgamma < 1e-8
    assert worst_kappa < 1e-8


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_determinism_and_exit_codes(tmp_path):
    base = {
        "alpha": 1.0,
        "n": 1,
        "lagrangian": [{"c": 1, "exp": [2, 2]}],
        "truncation_order": 3,
        "mode": "strict",
        "seed": 123,
    }
    blob1 = emit_json(run_pipeline(parse_config_dict(base)))
    blob2 = emit_json(run_pipeline(parse_config_dict(base)))
    deterministic = blob1 == blob2

    def run_cli(cfg):
        path = tmp_path / f"c{abs(hash(json.dumps(cfg, sort_keys=True)))}.json"
        path.write_text(json.dumps(cfg))
        return main(["run", "--config", str(path)], stream=io.StringIO())

    code0 = run_cli(base)
    code1 = run_cli(
        dict(
            base,
            alpha=0.45,
            tolerances={"geometry_anholonomy": 1e-8},
        )
    )
    code2 = run_cli(dict(base, alpha=0.5, mode="diagnostic"))
    code3 = run_cli(dict(base, alpha=1.5))
    codes = (code0, code1, code2, code3)
    ok = deterministic and codes == (
        EXIT_OK,
        EXIT_CHECK_FAILED,
        EXIT_COMPUTE_ERROR,
        EXIT_CONFIG_ERROR,
    )
    report_line(9, ok, f"byte-identical reports {deterministic}, exit codes {codes}")
    assert deterministic
    assert codes == (EXIT_OK, EXIT_CHECK_FAILED, EXIT_COMPUTE_ERROR, EXIT_CONFIG_ERROR)
