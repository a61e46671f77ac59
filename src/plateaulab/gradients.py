"""Exact gradients and the gradient-variance estimation protocol.

Expectation values of this gate set are trigonometric in each angle, so the
pi/2 parameter-shift rule gives exact derivatives. Every loss is a function
of the outputs f, the expectations of its ``observables``, so its gradient is
J^T * dL/df with J the parameter-shift Jacobian of the outputs and dL/df
analytic; shifting a nonlinear composite loss directly would be wrong. One
forward batch (the 2p shifted rows plus the unshifted one) gives both the
loss value and the gradient.

All randomness flows through ``draw_params``: sample i of a run is drawn from
a generator seeded by (seed, n_qubits, layers, i), so draws are independent
of evaluation order and shared across loss configurations of the same shape,
making cross-configuration comparisons paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    n_samples: int
    seed: int


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


def jacobian_outputs(spec: CircuitSpec, params) -> np.ndarray:
    """Parameter-shift Jacobian of the outputs: entry (k, j) = df_k/dphi_j."""
    angles = _check_params(spec, params)
    probs = probabilities(run_circuit_batch(spec, _shift_batch(angles)))
    return _shift_jacobian(probs @ z_signs(spec.n_qubits).T, spec.param_count).T


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
    angles = _check_params(spec, params)
    obs = observables(config, spec.n_qubits)
    probs = probabilities(run_circuit_batch(spec, _shift_batch(angles)))
    f_batch = probs @ obs.T
    jac = _shift_jacobian(f_batch, spec.param_count)
    value = loss_from_outputs(config, obs @ probs[-1], disc)
    return value, jac @ d_loss_d_outputs(config, f_batch[-1], disc)


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
    config: LossConfig,
    spec: CircuitSpec,
    disc: Discretization,
    n_samples: int,
    seed: int,
) -> VarianceReport:
    """Sample gradients at random initializations and report their variance.

    Each of the ``n_samples`` draws gets its own counter-derived substream,
    the per-parameter variances use the unbiased K-1 divisor, and the mean
    is the plain arithmetic mean over parameters.
    """
    if n_samples < MIN_VARIANCE_SAMPLES:
        raise ValueError(f"need at least {MIN_VARIANCE_SAMPLES} samples, "
                         f"got {n_samples}")
    grads = np.stack(
        [
            loss_gradient(
                config, spec, draw_params(seed, spec.n_qubits, spec.layers, k), disc
            )
            for k in range(n_samples)
        ]
    )
    per_param = grads.var(axis=0, ddof=1)
    return VarianceReport(
        per_param_variance=per_param,
        mean_variance=float(np.mean(per_param)),
        n_samples=n_samples,
        seed=seed,
    )
