"""Reference summaries of engine outputs, and the comparison against them.

A reference holds, per invocation, what must not change when the engine
gets faster: the exit code, the error type of an abort, the star-product
coefficients, the recursion term counts and the names of the checks that
passed.  Coefficients are compared numerically, so a kernel change that
only moves round-off is not a failure; a check that starts passing is
allowed, one that stops passing is not.
"""

from __future__ import annotations

import json

# a star coefficient term may move by this share of the largest term of
# its v-power (at least 1.0) before it counts as changed; a term present
# on one side only must itself stay below that size
COEFF_RTOL = 1e-9
EXP_DECIMALS = 9


def summarize(exit_code: int, output: str) -> dict:
    """Reference-shaped summary of one engine output (JSON text)."""
    summary = {"exit_code": exit_code}
    if not output.strip():
        return summary
    doc = json.loads(output)
    if "error" in doc:
        summary["error_type"] = doc["error"]["type"]
    star = doc.get("star", doc if "coefficients" in doc else None)
    if star is not None:
        summary["star_order"] = star["order"]
        summary["star"] = [c["terms"] for c in star["coefficients"]]
    if "fedosov" in doc:
        summary["r_term_counts"] = doc["fedosov"]["r_term_counts"]
    if "checks" in doc:
        summary["passed_checks"] = sorted(
            c["name"] for c in doc["checks"] if c["status"] == "pass"
        )
    return summary


def _terms_by_exponent(terms: list) -> dict:
    return {
        tuple(round(e, EXP_DECIMALS) for e in t["exp"]): complex(t["re"], t["im"])
        for t in terms
    }


def _compare_coefficient(r: int, ref_terms: list, got_terms: list) -> list:
    ref = _terms_by_exponent(ref_terms)
    got = _terms_by_exponent(got_terms)
    tol = COEFF_RTOL * max([1.0] + [abs(c) for c in ref.values()])
    problems = []
    for exp in sorted(set(ref) | set(got)):
        diff = abs(got.get(exp, 0j) - ref.get(exp, 0j))
        if diff > tol:
            problems.append(
                f"star C_{r} term {list(exp)}: expected {ref.get(exp)}, got {got.get(exp)}"
            )
    return problems


def compare(ref: dict, exit_code: int, output: str) -> list:
    """Problems of one output against its reference; empty when it matches."""
    if exit_code != ref["exit_code"]:
        return [f"exit code {exit_code}, expected {ref['exit_code']}"]
    try:
        got = summarize(exit_code, output)
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable output: {err!r}"]
    problems = []
    for key in ("error_type", "star_order", "r_term_counts"):
        if ref.get(key) != got.get(key):
            problems.append(f"{key} {got.get(key)!r}, expected {ref.get(key)!r}")
    if "star" in ref:
        coeffs = got.get("star", [])
        if len(coeffs) != len(ref["star"]):
            problems.append(f"{len(coeffs)} star coefficients, expected {len(ref['star'])}")
        else:
            for r, (want, have) in enumerate(zip(ref["star"], coeffs)):
                problems.extend(_compare_coefficient(r, want, have))
    lost = sorted(set(ref.get("passed_checks", [])) - set(got.get("passed_checks", [])))
    if lost:
        problems.append(f"checks no longer passing: {', '.join(lost)}")
    return problems
