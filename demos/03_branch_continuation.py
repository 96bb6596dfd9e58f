"""Tracing the global wave branch and its cone diagnostics.

From the bifurcation point mu = 3 the branch of deep-water waves is
followed in mu with a Newton corrector, by additive steps up to mu = 10
and by a factor 1.25 per point beyond, each guess extrapolated in log mu
through the last four points; the grid refines itself as the crest
sharpens.  The crest layer is about 1/mu wide: once the uniform grid
would need refining, the points move onto the crest-clustered map
tan(theta/2) = L tan(q/2) with L = 1/sqrt(mu) (the L column below), and
the grid grows from there.  Along the way every solution is checked
against the cone conditions (nonnegativity, ratio monotonicity, tail
ordering) and the classical amplitude bound is tabulated; the sup-norm
creeps toward the extreme-wave range between pi/6 and 0.5434.
"""

import numpy as np

import nekrasov as nk

print(__doc__)

print("=== branch from mu = 3.01 to mu = 2000 ===")
branch = nk.trace_branch(3.01, 2000.0)
print(f"  {len(branch)} points, truncated: {branch.truncated}")
print()
print("  mu          n     L       sup|Phi| (deg)  height/lambda  residual  guess res.  cone")
for p in branch.points[::4] + [branch.points[-1]]:
    print(f"  {p.mu:9.2f} {p.n:7d}  {p.field.grid.L:.4f}   {np.degrees(p.sup_norm):8.4f}      "
          f"{p.wave_height:9.6f}    {p.residual:.1e}   {p.guess_residual:.1e}   "
          f"{p.cone.all_ok}")

ex = nk.branch_extrema(branch)
print()
print(f"  peak sup-norm {ex.peak_sup_norm:.4f} rad "
      f"({np.degrees(ex.peak_sup_norm):.2f} deg) at mu = {ex.mu_at_peak:g}")
print(f"  pi/6 = {np.pi / 6:.4f} is crossed near mu ~ 3.5e3; the bound 0.5434 holds.")

print()
print("=== amplitude bound along the branch (reported, not asserted) ===")
print("  mu         M = sup|Phi|   [pi M + sin M/(3M)]^(-1)")
for p in branch.points[::8]:
    rec = nk.check_amplitude_bound(p.field, p.mu)
    print(f"  {p.mu:9.2f}   {rec.m_sup:9.6f}    {rec.rhs:9.6f}")
print("  as printed the bound sits below 3 for any M > 0, so it cannot hold")
print("  for the mu > 3 solutions; both sides are reported for inspection.")

print()
print("=== crest sharpening: fore-aft asymmetry of the angle ===")
for p in branch.points[::10]:
    print(f"  mu = {p.mu:9.2f}: max |Phi(t) - Phi(pi - t)| = "
          f"{nk.crest_trough_asymmetry(p.field):.6f}")

print()
print("=== scaled continua: the same wave at half and third period ===")
print("  built on grid n_fold * n, not solved: sup|Phi| and H/lambda (over the")
print("  minimal period) carry over from the source")
point = next(p for p in branch if p.mu > 4)
print(f"  source ({point.mu:.3f}, Phi) on n = {point.n}: sup|Phi| {point.sup_norm:.6f}, "
      f"H/lambda {point.wave_height:.6f}, residual {point.residual:.2e}")
for n_fold in (2, 3):
    scaled = nk.scale_branch_point(point, n_fold)
    print(f"  -> ({scaled.mu:.3f}, Phi({n_fold} theta)) on n = {scaled.n}: "
          f"sup|Phi| {scaled.sup_norm:.6f}, H/lambda {scaled.wave_height:.6f}, "
          f"residual {scaled.residual:.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogx(branch.mus, np.degrees(branch.sup_norms), "o-", ms=3)
    ax.axhline(30.0, color="k", ls="--", lw=0.8, label="pi/6 (30 deg)")
    ax.axhline(np.degrees(0.5434), color="r", ls=":", lw=0.8, label="upper bound")
    ax.set_xlabel("mu")
    ax.set_ylabel("sup |Phi| (degrees)")
    ax.set_title("Branch sup-norm vs mu")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo03_branch.png", dpi=120)
    print()
    print("wrote demo03_branch.png")
except ImportError:
    pass
