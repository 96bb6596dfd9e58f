"""Command-line interface.

Subcommands: eigs, solve, branch, series, profile, extreme, verify.
Configuration is taken from flags or from a JSON file (--config); flags
override file values.  Each subcommand takes only the flags it reads.
Exit codes: 0 success, 1 numerical failure (divergence or breakdown),
2 validation error.  Output is byte-stable for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io as _io
from .continuation import trace_branch
from .extreme import convexity_check, extreme_profile, solve_extreme
from .grid import AngleField
from .kernel import KernelSpec, characteristic_values
from .profile import _check_scales, reconstruct_profile
from .series import (UnsupportedOrderError, expand_solution,
                     height_coefficients_from_expansion)
from .solver import (TAIL_THRESHOLD, BreakdownError, DivergenceError, SolveResult,
                     solve_seeded)
from . import verify as _verify

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2


class ValidationError(ValueError):
    pass


def _parse_depth(text: str) -> float:
    if text.lower() in ("inf", "infinite", "deep"):
        return math.inf
    try:
        depth = float(text)
    except ValueError as exc:
        raise ValidationError(f"invalid depth {text!r}") from exc
    if depth <= 0:
        raise ValidationError(f"depth ratio must be positive, got {depth}")
    return depth


def _spec_from(args) -> KernelSpec:
    return KernelSpec(depth_ratio=_parse_depth(args.depth))


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("NEKRASOV_OUT_DIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(argv: list[str]) -> list[str]:
    """Expand the --config file into flags ahead of the explicit ones, so
    that explicit flags win.  The path is read as argparse reads --config:
    from --config FILE, --config=FILE or an unambiguous prefix such as
    --conf FILE.  That first pass knows no other flag, since the file may
    supply one that the subcommand requires; the full parse that follows
    still sees the explicit --config and rejects whatever it cannot take."""
    first = argparse.ArgumentParser(prog="nekrasov", add_help=False)
    first.add_argument("--config")
    cfg_path = first.parse_known_args(argv)[0].config
    if cfg_path is None:
        return argv
    try:
        with open(cfg_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read --config file: {exc}") from exc
    flags: list[str] = []
    for key, value in cfg.items():
        if value is False:  # store_true flags: absence means False
            continue
        flags.append(f"--{key.replace('_', '-')}")
        if value is not True:
            flags.append(str(value))
    # right after the subcommand, so that the explicit flags come later
    return argv[:1] + flags + argv[1:]


# the flags that several subcommands share; each subcommand declares only
# the ones it reads, so argparse rejects (exit 2) a flag that would change
# nothing
_SHARED_FLAGS = {
    "depth": dict(default="inf",
                  help="depth-to-wavelength ratio h/lambda, or 'inf' (default)"),
    "n": dict(type=int, default=512, help="grid size (default 512)"),
    "tol": dict(type=float, default=1e-12, help="solver tolerance"),
    "out-dir": dict(default=None,
                    help="output directory (default $NEKRASOV_OUT_DIR or '.')"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(default=None, help="output file name"),
}
_SOLVE_FLAGS = ("depth", "n", "tol", "out-dir", "format", "out")


def _add_flags(p: argparse.ArgumentParser, names=()):
    p.add_argument("--config", metavar="FILE",
                   help="JSON file with flag defaults (explicit flags win)")
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nekrasov",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigs", help="characteristic values of the linearized operator")
    p.add_argument("--kmax", type=int, default=8)
    _add_flags(p, ("depth", "out-dir", "format", "out"))

    p = sub.add_parser("solve", help="solve the wave equation at one mu")
    p.add_argument("--mu", type=float, required=True)
    _add_flags(p, _SOLVE_FLAGS)

    p = sub.add_parser("branch", help="trace the solution branch in mu")
    p.add_argument("--mu-start", type=float, default=None,
                   help="first mu (default mu1 + 0.01 at the depth; 3.01 on deep water)")
    p.add_argument("--mu-end", type=float, default=50.0)
    _add_flags(p, _SOLVE_FLAGS)

    p = sub.add_parser("series", help="exact small-parameter expansion coefficients")
    p.add_argument("--order", type=int, default=3)
    _add_flags(p, ("out-dir", "out"))

    p = sub.add_parser("profile", help="reconstruct the physical wave profile")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--wavelength", type=float, default=2.0 * math.pi)
    p.add_argument("--g", type=float, default=1.0)
    _add_flags(p, _SOLVE_FLAGS)

    p = sub.add_parser("extreme", help="extreme-wave limit and crest diagnostics")
    _add_flags(p, ("depth", "out-dir", "out"))

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--fast", action="store_true",
                   help="skip the slower checks (branch and extreme)")
    _add_flags(p)
    return ap


def _emit(args, stem: str, columns, payload) -> Path:
    """Write payload as JSON, or its columns as CSV under payload's metadata."""
    out_dir = _out_dir(args)
    if columns is not None and args.format == "csv":
        path = out_dir / (args.out or f"{stem}.csv")
        _io.write_csv(path, columns, payload["metadata"])
    else:
        path = out_dir / (args.out or f"{stem}.json")
        _io.write_json(path, payload)
    print(path)
    return path


def cmd_eigs(args) -> int:
    if args.kmax < 1:
        raise ValidationError(f"kmax must be at least 1, got {args.kmax}")
    spec = _spec_from(args)
    values = characteristic_values(spec, args.kmax)
    _emit(args, "eigs", _io.eigs_columns(values), _io.eigs_payload(values, __version__, spec))
    print(", ".join(_io.format_float(v) for v in values))
    return EXIT_OK


def _solve_seeded(args, spec) -> SolveResult:
    """solve_seeded at the requested mu, n and tol.  At or below the
    bifurcation point it warns on stderr and returns the trivial field
    (residual 0, no iterations); it also warns when the spectral tail shows
    that n does not resolve the solution."""
    if args.mu <= 0:
        raise ValidationError(f"mu must be positive, got {args.mu}")
    mu1 = float(characteristic_values(spec, 1)[0])
    if args.mu <= mu1:
        print(f"warning: subcritical mu <= {mu1:g} (no nontrivial solution); "
              "emitting the trivial solution", file=sys.stderr)
        return SolveResult(field=AngleField.zero(args.n), mu=args.mu, residual=0.0,
                           iterations=0, initial_residual=0.0)
    result = solve_seeded(args.mu, spec, args.n, args.tol)
    if not result.resolved:
        print(f"warning: unresolved on n={args.n}: spectral tail {result.tail:.3e} "
              f"above {TAIL_THRESHOLD:g}; raise --n", file=sys.stderr)
    return result


def cmd_solve(args) -> int:
    spec = _spec_from(args)
    result = _solve_seeded(args, spec)
    _emit(args, "solution", _io.solve_columns(result.field),
          _io.solve_payload(result, __version__, spec, args.tol))
    return EXIT_OK


def cmd_branch(args) -> int:
    spec = _spec_from(args)
    mu_start = args.mu_start
    if mu_start is None:
        mu_start = float(characteristic_values(spec, 1)[0]) + 0.01
    if args.mu_end <= mu_start:
        raise ValidationError("mu-end must exceed mu-start")
    branch = trace_branch(mu_start, args.mu_end, spec=spec, n_start=args.n, tol=args.tol)
    _emit(args, "branch", _io.branch_columns(branch), _io.branch_payload(branch, __version__))
    if branch.truncated:
        print(f"warning: branch truncated: {branch.failure}", file=sys.stderr)
    return EXIT_OK


def cmd_series(args) -> int:
    try:
        series = expand_solution(args.order)
    except UnsupportedOrderError as exc:
        raise ValidationError(str(exc)) from exc
    payload = _io.series_payload(
        series, height_coefficients_from_expansion(args.order), __version__)
    _emit(args, "series", None, payload)
    for c in payload["coefficients"]:
        print(f"mu'^{c['power']} sin({c['mode']} theta): {c['value']}")
    return EXIT_OK


def cmd_profile(args) -> int:
    # reconstruct_profile's own check, made before the solve rather than after it
    _check_scales(args.wavelength, args.g)
    spec = _spec_from(args)
    result = _solve_seeded(args, spec)
    profile = reconstruct_profile(result.field, args.mu, args.wavelength, args.g)
    columns = _io.profile_columns(profile)
    # emit x in increasing order (theta runs crest -> trough, x decreases)
    order = np.argsort(columns["x"], kind="stable")
    columns = {k: v[order] for k, v in columns.items()}
    _emit(args, "profile", columns,
          _io.solved_profile_payload(result, profile, __version__, spec, args.tol))
    return EXIT_OK


def cmd_extreme(args) -> int:
    if not math.isinf(_parse_depth(args.depth)):
        raise ValidationError("the extreme limit is computed on deep water")
    sol = solve_extreme()
    convexity = convexity_check(extreme_profile(sol))
    _emit(args, "extreme", None, _io.extreme_payload(sol, convexity, __version__))
    print(f"crest angle estimate: {sol.crest_angle_estimate:.6f} "
          f"(pi/6 = {math.pi / 6.0:.6f})")
    return EXIT_OK


def cmd_verify(args) -> int:
    ok = _verify.run_suite(fast=args.fast)
    return EXIT_OK if ok else EXIT_NUMERICAL


_HANDLERS = {
    "eigs": cmd_eigs,
    "solve": cmd_solve,
    "branch": cmd_branch,
    "series": cmd_series,
    "profile": cmd_profile,
    "extreme": cmd_extreme,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _load_config(argv)
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        # ValidationError and any precondition ValueError from the library
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BreakdownError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
