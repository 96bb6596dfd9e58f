"""Deterministic CSV/JSON emission for branches, profiles, and reports.

Identical inputs must produce byte-identical files: floats are formatted
with 17 significant digits, lines end with a bare newline, and no
timestamps or environment-dependent values are written.  Each output has
one metadata dict (tool version, kernel spec, and what the file reports
on), which a JSON file holds under "metadata" and a CSV file writes as its
'#' lines above the columns, so the two formats say the same thing.

JSON files have the standard library's ``indent=2`` layout, byte for byte,
but are produced with its C encoder: ``json.dump(..., indent=2)`` always
runs the pure-Python one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .kernel import DEEP


def format_float(x) -> str:
    if x is None:  # a value not recorded, such as a hand-built branch point's tail
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _canonical(value):
    """Make a value JSON-serializable with deterministic float text."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(format_float(value))
    if isinstance(value, np.ndarray):
        # tolist() gives Python bools, ints and floats for these dtypes, and
        # float(format(x, ".17g")) == x for every double; wider floats
        # (longdouble) come back as numpy scalars and take the element path
        if value.dtype.kind in "biuf" and value.dtype.itemsize <= 8:
            return value.tolist()
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


def write_csv(path, columns: dict[str, np.ndarray], metadata: dict) -> None:
    """Comma-separated table with '#'-prefixed metadata lines and a header row."""
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    rows = arrays[0].shape[0]
    lines = [f"# {key}: {_metadata_text(value)}" for key, value in metadata.items()]
    lines.append(",".join(names))
    for i in range(rows):
        lines.append(",".join(format_float(a[i]) for a in arrays))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _metadata_text(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, dict):
        return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return str(value)


# without indent, encode() runs the C encoder; its ", " item separator
# then marks the line breaks of the indented layout
_encode = json.JSONEncoder(separators=(", ", ": ")).encode
_encode_key = json.encoder.encode_basestring_ascii


def _indented(value, pad: str = "") -> str:
    """json.dumps(value, indent=2) for the values _canonical returns."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_encode_key(k)}: {_indented(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        text = _encode(value)
        # a string may itself contain ", " and a nested list is indented
        # further, so only a list of numbers, bools, nulls and empty dicts
        # can be split at the encoder's separators (any other dict shows a
        # quoted key)
        if '"' in text or "[" in text[1:]:
            body = (",\n" + inner).join([_indented(v, inner) for v in value])
        else:
            body = text[1:-1].replace(", ", ",\n" + inner)
        return "[\n" + inner + body + "\n" + pad + "]"
    return _encode(value)


def write_json(path, payload: dict) -> None:
    text = _indented(_canonical(payload)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def base_metadata(version: str, spec, **extra) -> dict:
    return {"tool": "nekrasov", "version": version, "kernel_spec": spec.to_dict(), **extra}


def _solve_fields(result, tol: float) -> dict:
    """A SolveResult's deterministic fields, with the tol it was solved to."""
    return {"n": result.field.n, "tol": tol, "mu": result.mu, "residual": result.residual,
            "iterations": result.iterations, "tail": result.tail,
            "resolved": result.resolved}


def eigs_columns(values) -> dict[str, np.ndarray]:
    return {"k": np.arange(1, len(values) + 1), "characteristic_value": values}


def eigs_payload(values, version: str, spec) -> dict:
    return {"metadata": base_metadata(version, spec), **eigs_columns(values)}


def solve_columns(field) -> dict[str, np.ndarray]:
    return {"theta": field.grid.theta, "phi": field.values}


def solve_payload(result, version: str, spec, tol: float) -> dict:
    return {"metadata": base_metadata(version, spec, **_solve_fields(result, tol)),
            **solve_columns(result.field), "coefficients": result.field.coefficients}


# a branch point's fields, in the order both branch formats write them
_POINT_FIELDS = ("mu", "n", "iterations", "sup_norm", "wave_height", "residual", "tail",
                 "cone_ok", "cone_max_violation")


def _point_values(p) -> tuple:
    return (p.mu, p.n, p.iterations, p.sup_norm, p.wave_height, p.residual, p.tail,
            bool(p.cone and p.cone.all_ok), p.cone.max_violation if p.cone else None)


def branch_columns(branch) -> dict[str, np.ndarray]:
    rows = [_point_values(p) for p in branch.points]
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(_POINT_FIELDS)}


def branch_payload(branch, version: str) -> dict:
    meta = base_metadata(version, branch.spec, tol=branch.tol, **branch.metadata,
                         truncated=branch.truncated, failure=branch.failure)
    points = [{**dict(zip(_POINT_FIELDS, _point_values(p))),
               "coefficients": p.field.coefficients} for p in branch.points]
    return {"metadata": meta, "points": points}


def series_payload(series, height, version: str) -> dict:
    """The expansion's coefficients and the height coefficients, as exact
    fractions in text."""
    return {
        "metadata": base_metadata(version, DEEP, order=series.order),
        "coefficients": [
            {"power": p, "mode": k, "value": str(series.coefficient(p, k))}
            for p in range(1, series.order + 1)
            for k in sorted(series.coefficients.get(p, {}))],
        "wave_height_over_wavelength": [str(c) for c in height],
    }


def profile_columns(profile) -> dict[str, np.ndarray]:
    return {"theta": profile.theta, "x": profile.x, "eta": profile.eta, "R": profile.R,
            "q_over_q0": profile.q_over_q0}


def profile_payload(profile, version: str, spec) -> dict:
    meta = base_metadata(version, spec, n=profile.metadata.get("n"))
    meta.update({"lambda": profile.wavelength, "c": profile.c, "q0": profile.q0,
                 "mu": profile.mu, "g": profile.g, "height": profile.height})
    meta.update(profile.metadata)
    return {"metadata": meta, **profile_columns(profile), "a_k": profile.a_k}


def solved_profile_payload(result, profile, version: str, spec, tol: float) -> dict:
    """profile_payload with the fields of the solve the profile came from."""
    payload = profile_payload(profile, version, spec)
    payload["metadata"].update(_solve_fields(result, tol))
    return payload


def extreme_payload(sol, convexity, version: str) -> dict:
    meta = base_metadata(version, DEEP, n_nodes=sol.n_nodes, residual=sol.residual,
                         iterations=sol.iterations,
                         sup_norm=float(np.abs(sol.phi_samples).max()))
    fit = sol.grant_fit
    return {"metadata": meta, "crest_angle_estimate": sol.crest_angle_estimate,
            "crest_angle_target": math.pi / 6.0, "jump": 2.0 * sol.crest_angle_estimate,
            "C1": fit.c1, "C2": fit.c2, "beta1": fit.beta1,
            "convexity": {"convex": convexity.convex,
                          "max_violation": convexity.max_violation}}
