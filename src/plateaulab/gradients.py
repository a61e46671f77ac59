"""Exact gradients and the gradient-variance estimation protocol.

Expectation values of this gate set are trigonometric in each angle, so the
pi/2 parameter-shift rule gives exact derivatives. Every loss is a function
of the outputs f, the expectations of its ``observables``, so its gradient is
J^T * dL/df with J the parameter-shift Jacobian of the outputs and dL/df
analytic; shifting a nonlinear composite loss directly would be wrong. One
forward batch (the 2p shifted rows plus the unshifted one) depends only on
the circuit and the angles; each loss value and gradient contracts it.

All randomness flows through ``draw_params``: sample i of a run is drawn from
a generator seeded by (seed, n_qubits, layers, i), so draws are independent
of evaluation order and shared across loss configurations of the same shape,
making cross-configuration comparisons paired; configurations of one
topology also share each draw's forward batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ansatz import CircuitSpec, _check_params, run_circuit_batch
from .losses import (
    Discretization,
    LossConfig,
    check_pairing,
    d_loss_d_outputs,
    loss_from_outputs,
    observables,
)
from .statevector import probabilities, z_signs

SHIFT = np.pi / 2.0

MIN_VARIANCE_SAMPLES = 2  # the unbiased K-1 divisor needs K >= 2


@dataclass(frozen=True)
class VarianceReport:
    """Per-parameter and mean gradient variances for one configuration."""

    per_param_variance: np.ndarray
    mean_variance: float


def _shift_batch(angles: np.ndarray) -> np.ndarray:
    # Rows 0..p-1 shift angle j by +pi/2, rows p..2p-1 by -pi/2, and the
    # last row is the unshifted point.
    p = angles.size
    shifted = np.tile(angles, (2 * p + 1, 1))
    j = np.arange(p)
    shifted[j, j] += SHIFT
    shifted[p + j, j] -= SHIFT
    return shifted


def _shift_jacobian(f_batch: np.ndarray, p: int) -> np.ndarray:
    # Row j holds df/dphi_j from the +-pi/2 rows of a shift batch's outputs.
    return (f_batch[:p] - f_batch[p : 2 * p]) / 2.0


def _shift_probs(spec: CircuitSpec, params) -> np.ndarray:
    angles = _check_params(spec, params)
    return probabilities(run_circuit_batch(spec, _shift_batch(angles)))


def jacobian_outputs(spec: CircuitSpec, params) -> np.ndarray:
    """Parameter-shift Jacobian of the outputs: entry (k, j) = df_k/dphi_j."""
    probs = _shift_probs(spec, params)
    return _shift_jacobian(probs @ z_signs(spec.n_qubits).T, spec.param_count).T


def _value_and_gradient(config: LossConfig, probs: np.ndarray,
                        disc: Discretization) -> tuple[float, np.ndarray]:
    obs = observables(config, disc.n_points)
    f_batch = probs @ obs.T
    jac = _shift_jacobian(f_batch, len(probs) // 2)
    value = loss_from_outputs(config, obs @ probs[-1], disc)
    return value, jac @ d_loss_d_outputs(config, f_batch[-1], disc)


def loss_and_gradient(
    config: LossConfig, spec: CircuitSpec, params, disc: Discretization
) -> tuple[float, np.ndarray]:
    """Loss value and its exact gradient with respect to all angles.

    One forward batch holds the 2p shifted rows and the unshifted row. Its
    outputs f give the Jacobian J and the point where dL/df is taken, so the
    gradient is J^T * dL/df. The value contracts the unshifted row on its
    own, as ``total_loss`` does, so the two agree bit for bit.
    """
    check_pairing(config, spec, disc)
    probs = _shift_probs(spec, params)
    return _value_and_gradient(config, probs, disc)


def loss_gradient(
    config: LossConfig, spec: CircuitSpec, params, disc: Discretization
) -> np.ndarray:
    """Exact gradient of the configured loss with respect to all angles."""
    return loss_and_gradient(config, spec, params, disc)[1]


def finite_difference_gradient(
    loss: Callable[[np.ndarray], float], params, h: float
) -> np.ndarray:
    """Central finite-difference gradient of an arbitrary scalar function."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    angles = np.asarray(params, dtype=np.float64)
    grad = np.empty(angles.size)
    for j in range(angles.size):
        up = angles.copy()
        down = angles.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (loss(up) - loss(down)) / (2.0 * h)
    return grad


def draw_params(seed: int, n_qubits: int, layers: int, index: int) -> np.ndarray:
    """Uniform [0, 2pi) angles for sample ``index`` of a seeded run."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    ss = np.random.SeedSequence([seed, n_qubits, layers, index])
    rng = np.random.default_rng(ss)
    return rng.uniform(0.0, 2.0 * np.pi, 2 * n_qubits * layers)


def gradient_variance(
    configs: Sequence[LossConfig], n_qubits: int, layers: int, n_samples: int, seed: int
) -> list[VarianceReport]:
    """Sample gradients at random initializations and report their variances.

    One report per config, in order. Each of the ``n_samples`` draws is shared
    by every config and runs one forward batch per topology. Variances use the
    unbiased K-1 divisor; the mean is their plain mean over parameters.
    """
    if n_samples < MIN_VARIANCE_SAMPLES:
        raise ValueError(f"need at least {MIN_VARIANCE_SAMPLES} samples, got {n_samples}")
    specs = [CircuitSpec(n_qubits, layers, c.required_topology()) for c in configs]
    disc = Discretization(n_qubits)
    grads: list[list[np.ndarray]] = [[] for _ in configs]
    draws = [draw_params(seed, n_qubits, layers, k) for k in range(n_samples)]
    # Topology-major, one live batch: interleaving or holding them raised peak RSS.
    for spec in dict.fromkeys(specs):
        for angles in draws:
            probs = _shift_probs(spec, angles)
            for config, config_spec, config_grads in zip(configs, specs, grads):
                if config_spec == spec:
                    config_grads.append(_value_and_gradient(config, probs, disc)[1])
            del probs
    per_params = [np.stack(g).var(axis=0, ddof=1) for g in grads]
    return [VarianceReport(v, float(np.mean(v))) for v in per_params]
