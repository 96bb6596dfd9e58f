"""Invariant suite behind the `verify` subcommand.

Each check prints one PASS/FAIL line; the suite returns False when any
check fails.  A check that solves also requires its SolveResult to be
resolved.  These are fast sanity invariants, not the full acceptance
battery in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .continuation import trace_branch
from .extreme import grant_number, solve_extreme, verify_constant_solution
from .kernel import (DEEP, KernelSpec, characteristic_values,
                     kernel_deep_closed, kernel_series)
from .profile import physical_params, profile_from_map_coefficients, reconstruct_profile
from .series import expand_solution
from .solver import get_operator, inner_accumulate, solve_seeded, solve_system


def _check_kernel_symmetry():
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.05, np.pi - 0.05, 64)
    tau = rng.uniform(0.05, np.pi - 0.05, 64)
    bad = np.abs(theta - tau) < 1e-3
    theta[bad] += 2e-3
    sym = np.abs(kernel_deep_closed(theta, tau) - kernel_deep_closed(tau, theta)).max()
    anti = np.abs(kernel_deep_closed(theta, -tau) + kernel_deep_closed(theta, tau)).max()
    return max(sym, anti) < 1e-13, f"symmetry/antisymmetry defect {max(sym, anti):.1e}"


def _check_series_vs_closed():
    spec = KernelSpec(n_modes=200000)
    pts = [(0.3, 1.1), (np.pi / 2, np.pi / 4), (2.0, 2.9)]
    worst = max(abs(kernel_series(t, s, spec) - kernel_deep_closed(t, s))
                for t, s in pts)
    return worst < 1e-4, f"series vs closed form defect {worst:.1e}"


def _check_eigenstructure():
    worst = 0.0
    for spec in (DEEP, KernelSpec(depth_ratio=0.5)):
        op = get_operator(256, spec)
        eig = np.linalg.eigvalsh(op.b_dense)[::-1][:16]
        target = 1.0 / characteristic_values(spec, 16)
        worst = max(worst, np.abs(np.sort(eig)[::-1] - target).max()
                    / target.max())
    return worst < 1e-12, f"eigenvalue defect {worst:.1e}"


def _check_series_coefficients():
    s = expand_solution(2)
    from fractions import Fraction
    ok = (s.coefficient(1, 1) == Fraction(1, 9)
          and s.coefficient(2, 1) == Fraction(-8, 243)
          and s.coefficient(2, 2) == Fraction(1, 54))
    return ok, "orders 1-2: 1/9, -8/243, 1/54"


def _check_local_bifurcation():
    mu_prime = 0.05
    res = solve_seeded(3.0 + mu_prime)
    b1 = res.field.coefficients[0]
    mismatch = abs(b1 - (mu_prime / 9 - 8 * mu_prime**2 / 243))
    return (mismatch < 5e-6 and res.resolved,
            f"leading coefficient mismatch {mismatch:.2e}, tail {res.tail:.1e}")


def _check_system_equivalence():
    mu = 3.2
    single = solve_seeded(mu)
    state = solve_system(mu, tol=1e-11)
    diff = np.abs(single.field.values - state.phi.values).max()
    cross = np.abs(state.psi * (1.0 + mu * inner_accumulate(state.phi)) - 1.0).max()
    return (diff < 1e-8 and cross < 1e-9 and single.resolved,
            f"phi diff {diff:.1e}, psi identity {cross:.1e}, tail {single.tail:.1e}")


def _check_mini_branch():
    branch = trace_branch(3.05, 4.0, n_start=256)
    ok = True
    msgs = []
    for p in branch.points:
        if p.residual > branch.tol:
            ok, msgs = False, msgs + [f"residual {p.residual:.1e} at mu={p.mu:g}"]
        if not p.cone.all_ok:
            ok, msgs = False, msgs + [f"cone violation at mu={p.mu:g}"]
        doubled = p.field.resample(2 * p.field.n)
        op = get_operator(doubled.n, branch.spec)
        if op.residual(doubled.values, p.mu) > 100 * branch.tol:
            ok, msgs = False, msgs + [f"doubled-grid residual at mu={p.mu:g}"]
    return ok, "; ".join(msgs) or f"{len(branch)} points clean"


def _check_dispersion():
    errs, resolved = [], True
    for mu_prime in (0.01, 0.005):
        res = solve_seeded(3.0 + mu_prime)
        c, _ = physical_params(res.field, res.mu)
        errs.append(abs(c**2 - 1.0))
        resolved &= res.resolved
    ok = errs[1] < 0.6 * errs[0] and errs[0] < 1e-3 and resolved
    return ok, f"c^2 errors {errs[0]:.2e} -> {errs[1]:.2e}, resolved: {resolved}"


def _check_cross_route():
    res = solve_seeded(3.5)
    p1 = reconstruct_profile(res.field, 3.5)
    p2 = profile_from_map_coefficients(res.field, 3.5)
    diff = max(np.abs(p1.eta - p2.eta).max(), np.abs(p1.x - p2.x).max())
    return diff < 1e-8 and res.resolved, f"route difference {diff:.1e}, tail {res.tail:.1e}"


def _check_grant():
    beta = grant_number(1e-9)
    resid = abs(math.sqrt(3) * (1 + beta) - math.tan(math.pi * beta / 2))
    return abs(beta - 0.802679) < 1e-5 and resid < 1e-5, f"beta1 {beta:.7f}"


def _check_constant_solution():
    rep = verify_constant_solution((1.0,), 1e4)
    return rep.max_deviation < 1e-3, f"deviation {rep.max_deviation:.2e}"


def _check_extreme():
    sol = solve_extreme()
    err = abs(sol.crest_angle_estimate - math.pi / 6)
    signs = sol.grant_fit.c1 < 0 < sol.grant_fit.c2
    return err < 0.01 and signs, f"crest angle err {err:.2e}, C1<0<C2: {signs}"


FAST_CHECKS = [
    ("kernel symmetry", _check_kernel_symmetry),
    ("kernel series limit", _check_series_vs_closed),
    ("eigenstructure", _check_eigenstructure),
    ("series coefficients", _check_series_coefficients),
    ("local bifurcation", _check_local_bifurcation),
    ("system equivalence", _check_system_equivalence),
    ("dispersion recovery", _check_dispersion),
    ("cross-route profiles", _check_cross_route),
    ("grant number", _check_grant),
    ("constant solution", _check_constant_solution),
]

SLOW_CHECKS = [
    ("mini branch", _check_mini_branch),
    ("extreme wave", _check_extreme),
]


def run_suite(fast: bool = False) -> bool:
    checks = FAST_CHECKS + ([] if fast else SLOW_CHECKS)
    all_ok = True
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
