"""Acceptance battery: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The long branch (criteria 4-6) is traced once per session.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import nekrasov as nk
from nekrasov.solver import get_operator
from conftest import solved_field


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_eigenstructure():
    t0 = time.time()
    worst = 0.0
    specs = [nk.DEEP] + [nk.KernelSpec(depth_ratio=h) for h in (0.1, 0.5, 2.0)]
    for spec in specs:
        op = get_operator(512, spec)
        eigenvalues = np.sort(np.linalg.eigvalsh(op.b_dense))[::-1][:32]
        target = 1.0 / nk.characteristic_values(spec, 32)
        worst = max(worst, float(np.max(np.abs(eigenvalues - target) / target)))
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    report("01 eigenstructure", f"max rel err {worst:.1e}, {elapsed:.2f} s")


def _fit_power_coefficient(mu_primes, data, powers, target_power):
    """Solve the small Vandermonde fit sum_p c_p mu'^p = data and return
    the coefficient of mu'^target_power."""
    v = np.stack([np.asarray(mu_primes, dtype=float) ** p for p in powers], axis=1)
    coef = np.linalg.solve(v, np.asarray(data, dtype=float))
    return coef[powers.index(target_power)]


def test_criterion_02_series_coefficients():
    t0 = time.time()
    series2 = nk.expand_solution(2)
    assert series2.coefficient(1, 1) == Fraction(1, 9)
    assert series2.coefficient(2, 1) == Fraction(-8, 243)
    assert series2.coefficient(2, 2) == Fraction(1, 54)

    series4 = nk.expand_solution(4)
    height4 = nk.height_coefficients_from_expansion(4)
    mu_primes = (0.02, 0.04, 0.08)
    solutions = [solved_field(3.0 + m, n=256) for m in mu_primes]
    heights = [nk.reconstruct_profile(s.field, s.mu).height for s in solutions]

    checks = []  # (name, exact, fitted, error_bar)
    for mode, exact in ((1, Fraction(115, 13122)), (2, Fraction(-8, 729)),
                        (3, Fraction(17, 4374))):
        data = [s.field.coefficients[mode - 1] for s in solutions]
        powers = list(range(mode, mode + 3))
        fitted = _fit_power_coefficient(mu_primes, data, powers, 3)
        # error bar: the first neglected order (mu'^{mode+3}) aliases into
        # the fitted mu'^3 coefficient with a computable weight; its
        # coefficient is exact for mode 1 and bounded by the order-4 value
        # for the higher modes (the per-mode coefficients decay with order)
        next_power = powers[-1] + 1
        alias = _fit_power_coefficient(mu_primes, [m ** next_power for m in mu_primes],
                                       powers, 3)
        c_next = abs(float(series4.coefficient(4, mode)))
        bar = 1.5 * abs(alias) * c_next + 1e-9
        checks.append((f"sin({mode}t) @ mu'^3", exact, fitted, bar))

    # wave height: (lambda/pi)[mu'/9 - 8 mu'^2/243 + 71 mu'^3/6561]
    data = [h * np.pi / (2 * np.pi) for h in heights]
    fitted_h = _fit_power_coefficient(mu_primes, data, [1, 2, 3], 3)
    alias_h = _fit_power_coefficient(mu_primes, [m**4 for m in mu_primes], [1, 2, 3], 3)
    c4_height = float(height4[3])
    bar_h = 1.5 * abs(alias_h * c4_height) + 1e-9
    checks.append(("height @ mu'^3", Fraction(71, 6561), fitted_h, bar_h))

    lines = []
    for name, exact, fitted, bar in checks:
        delta = abs(fitted - float(exact))
        agree = delta <= bar
        lines.append(f"{name}: recurrence {float(exact):+.8e}, fit {fitted:+.8e}, "
                     f"|diff| {delta:.1e} <= bar {bar:.1e} -> "
                     f"{'agree' if agree else 'DISCREPANCY'}")
        assert agree, "\n".join(lines)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("02 series coefficients",
           f"orders 1-2 exact; order-3 and height fits agree; {elapsed:.1f} s")
    for line in lines:
        print("    " + line)


def test_criterion_03_local_bifurcation():
    t0 = time.time()
    mismatches = []
    for mu_prime in (0.05, 0.025):
        res = solved_field(3.0 + mu_prime, n=256)
        b1 = res.field.coefficients[0]
        mismatches.append(abs(b1 - (mu_prime / 9 - 8 * mu_prime**2 / 243)))
    elapsed = time.time() - t0
    assert mismatches[0] < 5e-6
    ratio = mismatches[0] / mismatches[1]
    assert 6.5 < ratio < 9.5, f"cubic-order ratio {ratio}"
    assert elapsed < 10.0
    report("03 local bifurcation",
           f"mismatch {mismatches[0]:.2e} < 5e-6, halving ratio {ratio:.2f}, "
           f"{elapsed:.1f} s")


def test_criterion_04_global_bounds(long_branch):
    extrema = nk.branch_extrema(long_branch)
    peak = extrema.peak_sup_norm
    assert long_branch.points[-1].mu == pytest.approx(1e4)
    assert np.pi / 6 < peak < 0.5434
    rel = abs(peak - 0.530) / 0.530
    assert rel <= 0.02
    elapsed = long_branch.metadata["elapsed"]
    assert elapsed < 300.0
    report("04 global bounds",
           f"peak {peak:.4f} in (pi/6, 0.5434), {100 * rel:.2f}% from 0.530, "
           f"{elapsed:.0f} s")


def test_criterion_05_cone_membership(long_branch):
    worst = 0.0
    for p in long_branch:
        assert p.cone.all_ok, f"cone failed at mu={p.mu:g}"
        worst = max(worst, p.cone.max_violation)
        assert p.field.values.min() > 0.0, f"Phi <= 0 at mu={p.mu:g}"
        assert p.field.values.max() < np.pi / 3, f"Phi >= pi/3 at mu={p.mu:g}"
    assert worst <= 1e-9
    report("05 cone membership",
           f"{len(long_branch)} points, max violation {worst:.1e} <= 1e-9, "
           f"0 < Phi < pi/3 everywhere")


def test_criterion_06_scaled_continua(long_branch):
    idx = np.unique(np.linspace(0, len(long_branch) - 1, 20).astype(int))
    worst = drift = 0.0
    for n_fold in (2, 3):
        for i in idx:
            p = long_branch.points[i]
            scaled = nk.scale_branch_point(p, n_fold)
            tol = 10.0 * max(p.residual, 1e-12)
            assert scaled.residual <= tol, (
                f"mu={p.mu:g} n_fold={n_fold}: {scaled.residual:.2e} > {tol:.2e}")
            worst = max(worst, scaled.residual)
            # the same wave at 1/n_fold of the period: its sup-norm and its
            # H/lambda over its own minimal period are the source's
            assert (scaled.sup_norm, scaled.wave_height) == (p.sup_norm, p.wave_height)
            drift = max(drift, abs(scaled.field.sup_norm() - p.sup_norm))
    assert drift <= 1e-15
    report("06 scaled continua",
           f"{2 * len(idx)} scaled points, max residual {worst:.1e} <= 10 tol, "
           f"sup-norm recomputed to {drift:.1e}")


def test_criterion_07_stokes_angle(extreme_direct):
    t0 = time.time()
    angle = extreme_direct.crest_angle_estimate
    err = abs(angle - np.pi / 6)
    assert err <= 0.01
    beta = nk.grant_number(1e-12)
    assert abs(beta - 0.802679) <= 1e-6
    fit = extreme_direct.grant_fit
    assert fit.c1 < 0
    assert fit.c2 > 0
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report("07 stokes angle",
           f"crest angle err {err:.1e} <= 0.01, beta1 {beta:.6f}, "
           f"C1 {fit.c1:.3f} < 0 < C2 {fit.c2:.4f}")


def test_criterion_08_constant_solution():
    rep = nk.verify_constant_solution((0.3, 1.0, 3.0), truncation=1e4)
    assert rep.max_deviation < 1e-3
    report("08 approximate-equation identity",
           f"max deviation {rep.max_deviation:.2e} < 1e-3 at truncation 1e4")


def test_criterion_09_dispersion_recovery():
    errs = []
    for mu_prime in (0.01, 0.005):
        res = solved_field(3.0 + mu_prime, n=256)
        c, _ = nk.physical_params(res.field, res.mu, wavelength=2 * np.pi, g=1.0)
        errs.append(abs(c * c - 1.0))
    assert errs[0] < 1e-4
    assert errs[1] <= 0.6 * errs[0], f"errors {errs} did not shrink with mu - 3"
    report("09 dispersion recovery",
           f"c^2 errors {errs[0]:.2e} -> {errs[1]:.2e} as mu-3 halves")


def test_criterion_10_cross_route_reconstruction(wave_35):
    p1 = nk.reconstruct_profile(wave_35.field, 3.5)
    p2 = nk.profile_from_map_coefficients(wave_35.field, 3.5)
    diff = max(np.abs(p1.eta - p2.eta).max(), np.abs(p1.x - p2.x).max())
    assert diff < 1e-8
    report("10 cross-route reconstruction", f"sup difference {diff:.1e} < 1e-8")
