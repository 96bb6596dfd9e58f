"""The exact small-parameter expansion near the first bifurcation point.

In mu' = mu - 3 the branch starts as Phi = (mu'/9) sin(theta) + ...; the
recurrence that generates the higher orders runs in exact rational
arithmetic, so the classical coefficients come out as fractions, not
floats.  The same coefficients are then checked against fully nonlinear
solutions: the truncation error of the order-3 series must fall ~16x each
time mu' is halved.
"""

import numpy as np

import nekrasov as nk

print(__doc__)

print("=== exact expansion coefficients ===")
series = nk.expand_solution(4)
for p in range(1, 5):
    terms = ", ".join(f"({series.coefficient(p, k)}) sin {k}t"
                      for k in sorted(series.coefficients[p]))
    print(f"  mu'^{p}: {terms}")

print()
print("=== wave height per wavelength from exponentiating the angle series ===")
derived = [str(c) for c in nk.height_coefficients_from_expansion(4)]
print("  H/lambda = (1/pi) sum c_p mu'^p with c_1..c_4 =", derived)
print("  (the classical closed form is 1/9, -8/243, 71/6561 to order 3)")

print()
print("=== series vs nonlinear solutions ===")
grid = nk.get_grid(256)
print("  mu'      |b1 - series|   |b2 - series|   |b3 - series|")
for mu_prime in (0.08, 0.04, 0.02, 0.01):
    init = nk.AngleField(grid, values=nk.eval_series(series, mu_prime, grid.theta))
    res = nk.solve(3.0 + mu_prime, init)
    b = res.field.coefficients
    pred = nk.series_coefficients(series, mu_prime, 3)
    # compare against the order-3 truncation to expose the mu'^4 error
    series3 = nk.expand_solution(3)
    pred3 = nk.series_coefficients(series3, mu_prime, 3)
    errs = np.abs(b[:3] - pred3)
    print(f"  {mu_prime:5.3f}   {errs[0]:.3e}      {errs[1]:.3e}      {errs[2]:.3e}")
print("  each halving of mu' divides the order-3 truncation error by ~16.")

print()
print("=== wave height cross-check against reconstructed profiles ===")
for mu_prime in (0.05, 0.02):
    init = nk.AngleField(grid, values=nk.eval_series(series, mu_prime, grid.theta))
    res = nk.solve(3.0 + mu_prime, init)
    profile = nk.reconstruct_profile(res.field, res.mu)
    predicted = nk.wave_height_series(mu_prime, 2 * np.pi)
    print(f"  mu' = {mu_prime:5.3f}: profile height = {profile.height:.8f}, "
          f"series = {predicted:.8f}, diff = {abs(profile.height - predicted):.1e}")
