"""Gradient variance vs circuit depth at n = 6 qubits.

Run:  python3 demos/04_depth_sweep.py
"""

from plateaulab import sweep_depth

DEPTHS = (1, 2, 3, 4, 5)
result = sweep_depth(depths=DEPTHS, n=6, n_samples=25, seed=7)

by_config = {}
for row in result:
    by_config.setdefault(row.config_name, {})[row.layers] = row.mean_variance

print("mean gradient variance (x 1e-2), n = 6, K = 25")
print(f"{'configuration':<18}" + "".join(f"  L={L:<6}" for L in DEPTHS))
for name, values in by_config.items():
    print(f"{name:<18}" + "".join(f"  {100 * values[L]:<7.3f}" for L in DEPTHS))

print("\ndepth-decay factor var(L=1) / var(L=5):")
for name, values in by_config.items():
    print(f"{name:<18}  {values[1] / values[5]:.2f}x")
