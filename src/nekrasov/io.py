"""Deterministic CSV/JSON emission for branches, profiles, and reports.

Identical inputs must produce byte-identical files: floats are formatted
with 17 significant digits, lines end with a bare newline, and no
timestamps or environment-dependent values are written.  Every file starts
with a metadata block (tool version, grid size, tolerances, kernel spec).

JSON files have the standard library's ``indent=2`` layout, byte for byte,
but are produced with its C encoder: ``json.dump(..., indent=2)`` always
runs the pure-Python one.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


def format_float(x) -> str:
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


def base_metadata(version: str, spec, n: int | None = None,
                  tol: float | None = None, **extra) -> dict:
    meta = {"tool": "nekrasov", "version": version, "kernel_spec": spec.to_dict()}
    if n is not None:
        meta["n"] = n
    if tol is not None:
        meta["tol"] = tol
    meta.update(extra)
    return meta


def branch_columns(branch) -> dict[str, np.ndarray]:
    pts = branch.points
    return {
        "mu": np.array([p.mu for p in pts]),
        "sup_norm": np.array([p.sup_norm for p in pts]),
        "wave_height": np.array([p.wave_height for p in pts]),
        "residual": np.array([p.residual for p in pts]),
        "cone_ok": np.array([bool(p.cone and p.cone.all_ok) for p in pts]),
    }


def branch_payload(branch, version: str) -> dict:
    meta = base_metadata(version, branch.spec, tol=branch.tol, **branch.metadata)
    points = []
    for p in branch.points:
        points.append({
            "mu": p.mu,
            "n": p.n,
            "sup_norm": p.sup_norm,
            "wave_height": p.wave_height,
            "residual": p.residual,
            "cone_ok": bool(p.cone and p.cone.all_ok),
            "cone_max_violation": p.cone.max_violation if p.cone else None,
            "coefficients": p.field.coefficients,
        })
    return {"metadata": meta, "truncated": branch.truncated,
            "failure": branch.failure, "points": points}


def profile_columns(profile) -> dict[str, np.ndarray]:
    return {
        "theta": profile.theta,
        "x": profile.x,
        "eta": profile.eta,
        "R": profile.R,
        "q_over_q0": profile.q_over_q0,
    }


def profile_payload(profile, version: str, spec) -> dict:
    meta = base_metadata(version, spec, n=profile.metadata.get("n"))
    meta.update({
        "lambda": profile.wavelength,
        "c": profile.c,
        "q0": profile.q0,
        "mu": profile.mu,
        "g": profile.g,
        "height": profile.height,
    })
    meta.update(profile.metadata)
    return {"metadata": meta,
            "theta": profile.theta, "x": profile.x, "eta": profile.eta,
            "R": profile.R, "q_over_q0": profile.q_over_q0,
            "a_k": profile.a_k}
