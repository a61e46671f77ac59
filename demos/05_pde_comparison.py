"""Gradient variance across PDE residual types at n = 6, L = 3.

Here the physics term is each equation's steady spatial residual (not the
generic gradient penalty): linear diffusion, nonlinear advection-diffusion,
and shallow-water continuity under a Manning discharge closure. Richer
constraint structure shows up as stronger gradient signal.

Run:  python3 demos/05_pde_comparison.py
"""

import numpy as np

from plateaulab import Burgers, Discretization, Heat, SaintVenant, pde_residual, sweep_pde

result = sweep_pde(n=6, layers=3, n_samples=25, seed=7)

print("mean gradient variance (x 1e-3), n = 6, L = 3, K = 25")
for row in result:
    print(f"  {row.pde_name:<14} {1000 * row.mean_variance:.3f}")

# What the residuals themselves look like on a sample profile:
disc = Discretization(6)
profile = np.sin(2 * np.pi * np.arange(6) / 6) * 0.5
print("\nresiduals on a half-amplitude sine profile:")
for pde in (Heat(), Burgers(), SaintVenant()):
    res = pde_residual(profile, pde, disc)
    print(f"  {pde.name:<14} max |R| = {np.abs(res).max():.4f}")
