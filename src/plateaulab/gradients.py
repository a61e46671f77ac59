"""Exact gradients and the gradient-variance estimation protocol.

Every loss is a function of the outputs f, the expectations of its
``observables``, so its gradient is J^T * dL/df with dL/df analytic. Two
exact engines compute it.

Variance cells (``gradient_variance``) and training (``experiments.train``)
use the adjoint method. At a fixed point the gradient of L equals that of <O>
with the diagonal observable O = sum_k dL/df_k Z_k. The engine's forward sweep
gives B states phi, one per angle row. Its lambda rows form a (G, B) grid, row
(g, b) with its own config: lambda = O phi_b, O from that config's dL/df at
phi_b. A variance cell's grid has one block of draws per config; training's
has one block whose row k is config k. One backward sweep undoes every gate
on phi and lambda, reading dL/dtheta = Im<lambda|P|phi> at each rotation with
generator P (Y_q or Z_q). Every per-row contraction is row-wise, so a row's
loss and gradient have the same bits whatever grid it runs in.

The single-point API ``loss_gradient`` and ``jacobian_outputs`` use the pi/2
parameter-shift rule: expectations of this gate set are trigonometric in
each angle, so one forward batch of the 2p shifted rows plus the unshifted
one gives the Jacobian J; shifting a nonlinear composite loss directly
would be wrong. Parameter shift is also the oracle the adjoint engine is
tested against.

All randomness flows through ``draw_params``: sample i of a run is drawn from
a generator seeded by (seed, n_qubits, layers, i), so draws are independent
of evaluation order and shared across loss configurations of the same shape,
making cross-configuration comparisons paired; configurations of one
topology also share each block's forward and backward sweep.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import statevector as sv
from .ansatz import CircuitSpec, _check_params, circuit_gates, run_circuit_batch
from .losses import (
    Discretization,
    LossConfig,
    check_pairing,
    d_loss_d_outputs,
    loss_from_outputs,
    observables,
    outputs,
)
from .statevector import probabilities, z_signs

SHIFT = np.pi / 2.0

MIN_VARIANCE_SAMPLES = 2  # the unbiased K-1 divisor needs K >= 2


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
    return _shift_jacobian(outputs(z_signs(spec.n_qubits), probs), spec.param_count).T


def loss_gradient(
    config: LossConfig, spec: CircuitSpec, params, disc: Discretization
) -> np.ndarray:
    """Exact gradient of the configured loss with respect to all angles.

    One forward batch holds the 2p shifted rows and the unshifted row. Its
    outputs f give the Jacobian J, the last row gives dL/df, and the
    gradient is J^T * dL/df.
    """
    check_pairing(config, spec, disc)
    f_batch = outputs(observables(config, disc.n_points), _shift_probs(spec, params))
    jac = _shift_jacobian(f_batch, spec.param_count)
    return jac @ d_loss_d_outputs(config, f_batch[-1], disc)


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


# Signs that turn a float view of phi, reversed along one axis, into -i P phi
# for the rotation generator P. Axes: (bit of the qubit, lo, re/im).
# -iY maps (phi_0, phi_1) to (-phi_1, phi_0); reverse the bit axis.
_MINUS_I_Y_SIGNS = np.array([-1.0, 1.0])[:, None, None]
# -iZ maps phi_0 to -i phi_0 and phi_1 to i phi_1, and -i(x + iy) = y - ix;
# reverse the re/im axis.
_MINUS_I_Z_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :]


def _adjoint_gradients(
    grid: Sequence[Sequence[LossConfig]], spec: CircuitSpec, angles: np.ndarray,
    disc: Discretization,
) -> tuple[np.ndarray, np.ndarray]:
    """Losses (G, B) and gradients (G, B, p) of a (G, B) grid of configs.

    Config (g, b) of ``grid`` is read at phi row b: a variance cell passes one
    block per config, training one block whose row k is config k. The forward
    sweep ``run_circuit_batch(spec, angles)`` gives phi; their outputs f give
    each entry's loss, with the bits of ``total_loss``, and its row
    lambda = (sum_k dL/df_k Z_k) phi. One (G+1, B, 2^n) array of [phi; lambda]
    rows is walked back through the gates: at each rotation dL/dtheta =
    Im<lambda|P|phi> is read, then the gate is undone on every row.
    """
    n_blocks, n_draws, n = len(grid), len(angles), spec.n_qubits
    rows = np.empty((n_blocks + 1, n_draws, 2**n), dtype=np.complex128)
    rows[0] = run_circuit_batch(spec, angles)
    probs = probabilities(rows[0])
    flat = rows.view(np.float64).reshape(n_blocks + 1, n_draws, 2**n, 2)
    losses = np.empty((n_blocks, n_draws))
    # Row-wise einsum, not @, for the reason given in ``outputs``.
    for g, block in enumerate(grid):
        for config in dict.fromkeys(block):
            check_pairing(config, spec, disc)
            cols = [b for c, b in zip(block, range(n_draws), strict=True) if c == config]
            obs = observables(config, n)
            f = outputs(obs, probs[cols])
            losses[g, cols] = loss_from_outputs(config, f, disc)
            weights = np.einsum("bm,mi->bi", d_loss_d_outputs(config, f, disc), obs)
            flat[g + 1, cols] = flat[0, cols] * weights[:, :, None]
    del probs
    grads = np.empty((n_blocks, n_draws, spec.param_count))
    chi = np.empty((n_draws, 2 ** (n + 1)))
    products = np.empty((n_blocks, n_draws, 2 ** (n + 1)))
    lam = flat[1:].reshape(products.shape)
    cos_half, sin_pair, phases = sv._gate_coefficients(angles)
    sin_pair, phases = -sin_pair, phases.conj()  # each gate's inverse
    reads = {}  # (kind, qubit) -> reversed view of phi, signs of -iP, view of chi
    for a in range(n):
        phi = flat[0].reshape(n_draws, 2 ** (n - 1 - a), 2, 2**a, 2)
        reads["ry", a] = (phi[:, :, ::-1], _MINUS_I_Y_SIGNS, chi.reshape(phi.shape))
        reads["rz", a] = (phi[..., ::-1], _MINUS_I_Z_SIGNS, chi.reshape(phi.shape))
    for kind, a, b in reversed(list(circuit_gates(spec))):
        if kind == "cnot":
            sv._apply_cnot_inplace(rows, a, b)
            continue
        # dL/dtheta = Im<lam|P|phi> = Re<lam|chi> with chi = -i P phi. Every
        # row sums over a contiguous buffer, so its bits do not depend on
        # the grid's size.
        np.multiply(*reads[kind, a])
        np.multiply(lam, chi, out=products)
        grads[:, :, b] = products.sum(axis=2)
        if kind == "ry":
            sv._apply_ry_inplace(rows, a, cos_half[b], sin_pair[b])
        else:
            sv._apply_rz_inplace(rows, a, phases[b])
    return losses, grads


def _members_by_topology(configs: Sequence[LossConfig]) -> dict:
    """Indices of each topology's configs, topologies in order of first use."""
    groups: dict = {}
    for i, config in enumerate(configs):
        groups.setdefault(config.required_topology(), []).append(i)
    return groups


def gradient_variance(
    configs: Sequence[LossConfig], n_qubits: int, layers: int, n_samples: int, seed: int
) -> list[np.ndarray]:
    """Per-parameter gradient variances (p,) at random initializations.

    One array per config, in order. Each of the ``n_samples`` draws is shared
    by every config; per topology the draws run in blocks, each one adjoint
    forward and backward sweep for all of that topology's configs. Variances
    use the unbiased K-1 divisor.
    """
    if n_samples < MIN_VARIANCE_SAMPLES:
        raise ValueError(f"need at least {MIN_VARIANCE_SAMPLES} samples, got {n_samples}")
    disc = Discretization(n_qubits)
    draws = np.stack([draw_params(seed, n_qubits, layers, k) for k in range(n_samples)])
    grads: list = [None] * len(configs)
    for topology, members in _members_by_topology(configs).items():
        spec = CircuitSpec(n_qubits, layers, topology)
        # (C+1) live rows per draw: at most p live rows per block.
        block = max(1, spec.param_count // (len(members) + 1))
        stacks = np.concatenate([
            _adjoint_gradients([[configs[i]] * len(angles) for i in members],
                               spec, angles, disc)[1]
            for angles in np.split(draws, range(block, n_samples, block))
        ], axis=1)
        for i, stack in zip(members, stacks):
            grads[i] = stack
    return [g.var(axis=0, ddof=1) for g in grads]
