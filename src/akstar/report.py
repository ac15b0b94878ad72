"""Machine-readable run reports with deterministic serialization.

The JSON emitter sorts every key and serializes signomials as sorted term
lists, so identical (config, seed) pairs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json

from .expr import Signomial


def signomial_terms(s: Signomial) -> list:
    return [
        {"c": [c.real, c.imag], "exp": list(exps)}
        for exps, c in s.sorted_terms()
    ]


def star_terms(s: Signomial) -> list:
    # star coefficients use the flat {re, im, exp} record layout
    return [
        {"re": c.real, "im": c.imag, "exp": list(exps)}
        for exps, c in s.sorted_terms()
    ]


def matrix_terms(mat) -> list:
    return [[signomial_terms(entry) for entry in row] for row in mat]


def form_components(form) -> list:
    # forms are Wick elements with v = 0 and z = 0; key[2] is the co-frame index tuple
    return [
        {"idx": list(key[2]), "terms": signomial_terms(coeff)}
        for key, coeff in sorted(form.terms.items())
    ]


def config_digest(canonical_config: dict) -> str:
    blob = json.dumps(canonical_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def emit_json(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def check_line(entry: dict) -> str:
    """One check as a fixed-width line, its note (if any) in parentheses."""
    val = "pole" if entry["value"] is None else f"{entry['value']:.3e}"
    thr = "-" if entry["threshold"] is None else f"{entry['threshold']:.1e}"
    note = f"  ({entry['note']})" if entry["note"] else ""
    return f"{entry['name']:<28} {entry['status']:<10} value {val:>10}  tol {thr}{note}"


def emit_text(report: dict) -> str:
    lines = []
    eng = report.get("engine", {})
    prov = report.get("provenance", {})
    lines.append(f"engine {eng.get('name')} {eng.get('version')}")
    lines.append(
        f"config sha256 {prov.get('config_sha256', '')[:16]}...  seed {prov.get('seed')}"
    )
    cfg = report.get("config", {})
    lines.append(
        f"alpha {cfg.get('alpha')}  n {cfg.get('n')}  K {cfg.get('truncation_order')}"
        f"  mode {cfg.get('mode')}"
    )
    fed = report.get("fedosov")
    if fed:
        res = "  ".join(f"Deg {d}: {v:.3e}" for d, v in sorted(fed["r_residuals"].items(), key=lambda kv: int(kv[0])))
        lines.append(f"recursion residuals  {res}")
    strsec = report.get("star")
    if strsec:
        lines.append(f"star coefficients through v^{len(strsec['coefficients']) - 1}")
    lines.append("checks:")
    for entry in report.get("checks", []):
        lines.append(f"  {check_line(entry)}")
    status = report.get("status", {})
    lines.append(
        f"result: exit {status.get('exit_code')}"
        + (f"  failed: {', '.join(status['failed'])}" if status.get("failed") else "")
    )
    if "error" in report:
        err = report["error"]
        lines.append(f"error: {err['type']}: {err['message']} (stage {err['stage']})")
    return "\n".join(lines) + "\n"
