"""The extreme wave: stagnation crest, 2 pi/3 corner, Grant asymptotics.

As mu -> infinity the crest speed q0 vanishes and the crest becomes a
stagnation point where the surface forms a 2 pi/3 interior angle, i.e. the
tangent angle tends to pi/6.  The limiting equation (1/mu = 0) is
collocated directly on a crest-graded mesh.  Near the crest
Phi* = pi/6 + C1 s^b1 + C2 s^(2 b1) with the Grant exponent b1 ~ 0.8027,
C1 < 0, C2 > 0.  The same solution fixes the highest wave's surface, its
height H/lambda ~ 0.141063 and speed c ~ 1.092285 (g = 1, lambda = 2 pi),
and that surface is convex between successive crests.
"""

import numpy as np

import nekrasov as nk

print(__doc__)

beta1 = nk.grant_number(1e-12)
print(f"=== Grant exponent: smallest root of sqrt(3)(1+b) = tan(pi b/2) ===")
print(f"  beta1 = {beta1:.9f}")

print()
print("=== direct collocation of the limiting equation ===")
direct = nk.solve_extreme()
print(f"  residual {direct.residual:.1e} on the graded mesh")
print(f"  crest angle estimate = {direct.crest_angle_estimate:.8f} rad")
print(f"  pi/6                 = {np.pi / 6:.8f} rad "
      f"(error {abs(direct.crest_angle_estimate - np.pi / 6):.1e})")
print(f"  odd-extension jump across the crest = "
      f"{2.0 * nk.stokes_limit(direct):.6f} (pi/3 = {np.pi / 3:.6f})")
fit = direct.grant_fit
print(f"  crest fit: C1 = {fit.c1:.4f} (< 0), C2 = {fit.c2:.5f} (> 0)")

print()
print("=== the highest wave as the mesh refines ===")
print("     N    crest angle - pi/6    H/lambda      c")
for n_nodes in (600, 1200, 2400):
    sol = direct if n_nodes == 600 else nk.solve_extreme(n_nodes=n_nodes)
    surface = nk.extreme_profile(sol)
    print(f"  {n_nodes:5d}    {sol.crest_angle_estimate - np.pi / 6:+.2e}"
          f"          {surface.height / surface.wavelength:.8f}  {surface.c:.8f}")
print("  published: H/lambda = 0.141063, c = 1.092285 (Williams 1981)")

print()
print("=== the constant pi/6 solves the half-line model equation ===")
rep = nk.verify_constant_solution((0.3, 1.0, 3.0), truncation=1e4)
for t, d in zip(rep.theta_samples, rep.deviations):
    print(f"  theta = {t:4.1f}: |rhs - pi/6| = {d:.2e}")
print(f"  analytic truncation tail bound: {rep.tail_bound:.2e}")

print()
print("=== convexity between successive crests (the extreme profile) ===")
profile = nk.extreme_profile(direct)
report = nk.convexity_check(profile)
print(f"  convex: {report.convex} over x in "
      f"[{report.checked_range[0]:.3f}, {report.checked_range[1]:.3f}] "
      f"(max violation {report.max_violation:.1e})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].semilogx(direct.theta_samples, direct.phi_samples)
    axes[0].axhline(np.pi / 6, color="k", lw=0.8, ls=":")
    axes[0].set_xlabel("theta")
    axes[0].set_ylabel("Phi")
    axes[0].set_title("Extreme tangent angle (pi/6 at the crest)")
    x = np.concatenate((profile.x[::-1], -profile.x))
    eta = np.concatenate((profile.eta[::-1], profile.eta))
    axes[1].plot(x, eta)
    axes[1].set_title("Extreme surface (120 degree crest)")
    axes[1].set_xlabel("x")
    axes[1].set_ylabel("eta")
    axes[1].set_aspect("equal", adjustable="datalim")
    fig.tight_layout()
    fig.savefig("demo05_extreme.png", dpi=120)
    print()
    print("wrote demo05_extreme.png")
except ImportError:
    pass
