"""Physical wave reconstruction: surfaces, speeds, and cross-checks.

A solved angle field determines the free surface up to scale; fixing the
wavelength and gravity pins the speed c through the flow relation and the
crest speed q0 through mu = 3 g c lambda/(2 pi q0^3).  Two independent
reconstruction routes (direct integration of the tangent relations vs the
conformal-map coefficients) agree to spectral accuracy, and the linear
dispersion relation c^2 = g lambda/(2 pi) re-emerges as mu drops to 3.
"""

import numpy as np

import nekrasov as nk

print(__doc__)


def solved(mu):
    return nk.solve_seeded(mu).field


print("=== physical parameters along the branch (lambda = 2 pi, g = 1) ===")
print("  mu        c          q0         q0/c      height/lambda")
for mu in (3.05, 3.2, 3.5, 4.0, 5.0, 8.0):
    field = solved(mu)
    profile = nk.reconstruct_profile(field, mu)
    print(f"  {mu:5.2f}   {profile.c:.6f}   {profile.q0:.6f}   "
          f"{profile.q0 / profile.c:.4f}    {profile.height / profile.wavelength:.6f}")
print("  the crest slows (q0 down) as the waves steepen; q0 -> 0 is the")
print("  extreme-wave stagnation limit.")

print()
print("=== dispersion recovery near the bifurcation point ===")
for mu_prime in (0.05, 0.01, 0.005):
    c, q0 = nk.physical_params(solved(3.0 + mu_prime), 3.0 + mu_prime)
    print(f"  mu - 3 = {mu_prime:6.3f}: c^2 = {c * c:.8f} "
          f"(linear value 1, error {abs(c * c - 1):.2e})")

print()
print("=== two reconstruction routes ===")
field = solved(3.5)
p1 = nk.reconstruct_profile(field, 3.5)
p2 = nk.profile_from_map_coefficients(field, 3.5)
print(f"  sup |eta_direct - eta_map| = {np.abs(p1.eta - p2.eta).max():.2e}")
print(f"  sup |x_direct - x_map|     = {np.abs(p1.x - p2.x).max():.2e}")
print(f"  leading map coefficients a_k: {np.round(p2.a_k[:4], 6)}")

print()
print("=== surface speed factor ===")
print(f"  R(crest) = {p1.R[0]:.6f} = c/q0 = {p1.c / p1.q0:.6f}")
print(f"  R(trough) = {p1.R[-1]:.6f}; speed ratio q/q0 spans "
      f"[{p1.q_over_q0[0]:.3f}, {p1.q_over_q0[-1]:.3f}]")

print()
print("=== dimensional example: lambda = 100 m, g = 9.81 m/s^2, mu = 3.5 ===")
p_dim = nk.reconstruct_profile(field, 3.5, wavelength=100.0, g=9.81)
print(f"  c = {p_dim.c:.3f} m/s, q0 = {p_dim.q0:.3f} m/s, "
      f"height = {p_dim.height:.3f} m")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3.5))
    for mu in (3.2, 4.0, 8.0):
        prof = nk.reconstruct_profile(solved(mu), mu)
        x = np.concatenate((prof.x[::-1], -prof.x))
        eta = np.concatenate((prof.eta[::-1], prof.eta))
        ax.plot(x, eta, label=f"mu = {mu}")
    ax.set_xlabel("x")
    ax.set_ylabel("eta")
    ax.set_title("Free surfaces over one wavelength (mean level 0)")
    ax.legend()
    ax.set_aspect("equal", adjustable="datalim")
    fig.tight_layout()
    fig.savefig("demo04_profiles.png", dpi=120)
    print()
    print("wrote demo04_profiles.png")
except ImportError:
    pass
