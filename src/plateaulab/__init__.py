"""Statevector laboratory for gradient-variance and trainability experiments
on variational quantum circuits with physics-informed loss functions."""

from .statevector import (
    apply_cnot,
    apply_ry,
    apply_rz,
    expect_z,
    expect_z_string,
    init_zero,
    probabilities,
    qubit_count,
    reduced_density_matrix,
    von_neumann_entropy,
    z_signs,
)
from .ansatz import (
    CircuitSpec,
    Topology,
    circuit_gates,
    entangler_pairs,
    gate_count,
    run_circuit,
)
from .losses import (
    Burgers,
    Discretization,
    Heat,
    LossConfig,
    LossKind,
    SaintVenant,
    all_configs,
    centered_d1,
    centered_d2,
    default_target,
    loss_and_d_outputs,
    observables,
    pde_residual,
    total_loss,
)
from .gradients import (
    draw_params,
    finite_difference_gradient,
    gradient_samples,
    gradient_variance,
    loss_gradient,
)
from .experiments import (
    ScalingFit,
    ScalingModel,
    TrainTrace,
    entanglement_sweep,
    fit_scaling,
    sweep_depth,
    sweep_pde,
    sweep_qubits,
    train,
)

__version__ = "0.1.0"
