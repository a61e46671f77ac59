"""Gradient variance vs qubit count for the four loss configurations.

The unconstrained global cost decays steadily with system size while the
physics-informed losses flatten out between 6 and 8 qubits. Sample count is
reduced here to keep the demo quick; the protocol value is K = 25.

Run:  python3 demos/03_qubit_sweep.py
"""

from plateaulab import ScalingModel, fit_scaling, sweep_qubits
from plateaulab.cli import emit_reference_lines

NS = (4, 6, 8)
result = sweep_qubits(ns=NS, layers=3, n_samples=25, seed=7)

by_config = {}
for row in result:
    by_config.setdefault(row.config_name, {})[row.n] = row.mean_variance

print("mean gradient variance (x 1e-2), L = 3, K = 25")
print(f"{'configuration':<18}" + "".join(f"  n={n:<6}" for n in NS))
for name, values in by_config.items():
    print(f"{name:<18}" + "".join(f"  {100 * values[n]:<7.3f}" for n in NS))

print("\nfitted scaling exponents per configuration:")
for name, values in by_config.items():
    points = sorted(values.items())
    b = fit_scaling(points, ScalingModel.EXP_IN_QUBITS).exponent
    a = fit_scaling(points, ScalingModel.POWER_IN_QUBITS).exponent
    print(f"{name:<18}  var ~ 2^(-{b:.2f} n)   or   var ~ n^(-{a:.2f})")

anchor = by_config["global_cost"][NS[0]]
print("\nexponential 2^-n reference line anchored at the global cost:")
for n, value in emit_reference_lines(NS, anchor):
    print(f"  n={n}: {value:.4e}")
