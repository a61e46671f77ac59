"""Exact adjoint gradients checked against finite differences.

Every loss is a function of the measured Z outputs, so its gradient is the
gradient of one diagonal observable, which the adjoint engine behind
``loss_gradient`` reads in one backward sweep. This demo shows it agreeing
with a brute-force central-difference oracle on every configuration.

Run:  python3 demos/02_gradient_checks.py
"""

import numpy as np

from plateaulab import (
    Burgers,
    CircuitSpec,
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    SaintVenant,
    all_configs,
    draw_params,
    finite_difference_gradient,
    loss_gradient,
    total_loss,
)

n, layers = 4, 2
disc = Discretization(n)

configs = all_configs() + [
    LossConfig(LossKind.PDE_CONSTRAINED, pde=Heat()),
    LossConfig(LossKind.PDE_CONSTRAINED, pde=Burgers()),
    LossConfig(LossKind.PDE_CONSTRAINED, pde=SaintVenant()),
]

print(f"{'configuration':<18} {'pde':<14} max |adjoint - finite diff|")
for config in configs:
    spec = CircuitSpec(n, layers, config.required_topology())
    params = draw_params(5, n, layers, 0)
    exact = loss_gradient(config, spec, params, disc)
    oracle = finite_difference_gradient(
        lambda q: total_loss(config, spec, q, disc), params, h=1e-5
    )
    print(f"{config.name:<18} {str(config.pde_name):<14} {np.abs(exact - oracle).max():.2e}")

# The local cost is <Z_0> itself, so its gradient entry 0 has closed form:
# after RY(theta) on qubit 0, <Z_0> = cos(theta) and its derivative -sin(theta).
local = LossConfig(LossKind.LOCAL_COST)
spec = CircuitSpec(2, 1, local.required_topology())
grad = loss_gradient(local, spec, np.array([np.pi / 2, 0.0, 0.0, 0.0]), Discretization(2))
print("\nd<Z_0>/d(RY_0) at theta = pi/2:", round(grad[0], 12), "(analytic: -1)")
