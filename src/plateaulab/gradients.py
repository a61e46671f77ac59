"""Exact gradients and the gradient-variance estimation protocol.

Every loss is a function of the outputs f of its ``observables``, so its
gradient is J^T * dL/df with dL/df analytic. One exact engine computes it,
the adjoint plan ``_adjoint_plan``: it serves variance cells
(``gradient_variance``), training (``experiments.train``) and the
single-point API (``loss_gradient``), each entry with the same bits.

All randomness flows through ``draw_params``: sample i of a run is drawn from
a generator seeded by (seed, n_qubits, layers, i), so draws are independent
of evaluation order and shared across loss configurations of the same shape,
making cross-configuration comparisons paired.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from . import statevector as sv
from .ansatz import (
    CircuitSpec,
    _check_params,
    _is_cnot,
    _row_gathers,
    circuit_gates,
    run_circuit_batch,
)
from .losses import (
    Discretization,
    LossConfig,
    _check_configs,
    check_pairing,
    loss_and_d_outputs,
    observables,
)
from .statevector import outputs, probabilities
# Unused here, kept as a binding that bench/tracer.py wraps.
from .losses import d_loss_d_outputs  # noqa: F401

MIN_VARIANCE_SAMPLES = 2  # the unbiased K-1 divisor needs K >= 2


def loss_gradient(
    config: LossConfig, spec: CircuitSpec, params, disc: Discretization
) -> np.ndarray:
    """Exact gradient of the configured loss with respect to all angles: one
    adjoint-plan run, with the bits of that entry in any variance cell or
    training grid. ValueError unless config, spec and disc pair
    (``check_pairing``) and ``params`` holds param_count angles."""
    check_pairing(config, spec, disc)
    angles = _check_params(spec, params)
    return _adjoint_plan([[config]], spec.n_qubits, spec.layers)(angles[None])[1][0, 0]


def finite_difference_gradient(
    loss: Callable[[np.ndarray], float], params, h: float
) -> np.ndarray:
    """Central finite-difference gradient of an arbitrary scalar function;
    the step ``h`` must be a finite real number > 0."""
    sv._check_real("h", h, 0, strict=True)
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
    """Uniform [0, 2pi) angles for sample ``index`` of a seeded run; seed and
    index must be integers >= 0, and n_qubits and layers valid circuit sizes."""
    sv._check_count("seed", seed, 0)
    sv._check_count("n_qubits", n_qubits, sv.MIN_QUBITS, sv.MAX_QUBITS)
    sv._check_count("layers", layers, 1)
    sv._check_count("index", index, 0)
    ss = np.random.SeedSequence([seed, n_qubits, layers, index])
    rng = np.random.default_rng(ss)
    return rng.uniform(0.0, 2.0 * np.pi, 2 * n_qubits * layers)


# Signs that turn a float view of phi, reversed along one axis, into -i P phi
# for the rotation generator P. Axes: (bit of the qubit, lo, re/im).
# -iY = RY(pi) maps (phi_0, phi_1) to (-phi_1, phi_0): RY's signs, bit axis reversed.
_MINUS_I_Y_SIGNS = sv._RY_SIGNS[:, :, None]
# -iZ maps phi_0 to -i phi_0 and phi_1 to i phi_1, and -i(x + iy) = y - ix;
# reverse the re/im axis.
_MINUS_I_Z_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :]


def _adjoint_plan(
    grid: Sequence[Sequence[LossConfig]], n_qubits: int, layers: int,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The adjoint engine of a (G, B) grid of configs, as a run(angles) that
    returns losses (G, B) and gradients (G, B, p) at (B, p) angles.

    Config (g, b) of ``grid`` is read at phi row b on ``Discretization(n)``,
    and row b runs the ansatz of the topology that every config of grid
    column b requires: a variance cell passes one block per config over a
    ``_blocks`` block of draws, training one block whose row k is config k.
    The plan holds all that does not depend on the angles, so training
    builds it once and runs it every epoch; it is a closure over plain arrays
    with no reference cycle, so refcounting frees it. Building it raises
    ValueError if the blocks differ in length or a column mixes topologies.

    A run raises ValueError unless the angles have shape (B, p), before any
    kernel runs, and returns fresh arrays. At fixed phi the gradient of L is
    that of <O> for the diagonal O = sum_k dL/df_k Z_k. The forward sweep,
    ``run_circuit_batch`` with the rows' ``_row_gathers`` indices and
    ``z_readout``, gives phi.
    Each block holds one term per distinct loss of f (``LossConfig.loss_key``),
    so configs that differ only in topology share one: one
    ``loss_and_d_outputs`` call on the outputs f of all its rows gives each
    entry's loss, with the bits of ``total_loss``, and its row lambda = O phi.
    One (G+1, B, 2^n) array of [phi; lambda] rows is walked back through the
    rotations: at each, dL/dtheta = Im<lambda|P|phi> is read for its
    generator P (Y_q or Z_q), then the gate at -theta undoes it on every row;
    one gather undoes each CNOT sub-layer with every row's own undo indices.
    The walk back ends at its last read, that of the circuit's first gate,
    whose undo would feed no read. It skips the last layer's RZ gates, as
    the forward does: their gradient entries are exact zeros. Every
    contraction is row-wise, so an entry's loss and gradient have the same
    bits in any grid.
    """
    specs = []
    for b, column in enumerate(zip(*grid, strict=True)):
        topologies = dict.fromkeys(config.required_topology() for config in column)
        if len(topologies) > 1:
            raise ValueError(f"grid column {b} mixes topologies "
                             f"{', '.join(t.value for t in topologies)}")
        specs.append(CircuitSpec(n_qubits, layers, *topologies))
    spec, n_blocks, n_draws, n = specs[0], len(grid), len(specs), n_qubits
    disc = Discretization(n)
    terms = [(g, config, np.array([b for b, c in enumerate(block) if c.loss_key == key]),
              observables(config, n))
             for g, block in enumerate(grid)
             for key, config in {c.loss_key: c for c in block}.items()]
    forward, undo = _row_gathers(specs)
    rows = np.empty((n_blocks + 1, n_draws, 2**n), dtype=np.complex128)
    flat = rows.view(np.float64).reshape(n_blocks + 1, n_draws, 2**n, 2)
    chi = np.empty((n_draws, 2 ** (n + 1)))
    products = np.empty((n_blocks, n_draws, 2 ** (n + 1)))
    lam = flat[1:].reshape(products.shape)
    blocks = rows.reshape(n_blocks + 1, -1)  # one flat run of B rows per block
    reads = {}  # (kind, qubit) -> reversed view of phi, signs of -iP, view of chi
    for a in range(n):
        phi = flat[0].reshape(n_draws, 2 ** (n - 1 - a), 2, 2**a, 2)
        reads["ry", a] = (phi[:, :, ::-1], _MINUS_I_Y_SIGNS, chi.reshape(phi.shape))
        reads["rz", a] = (phi[..., ::-1], _MINUS_I_Z_SIGNS, chi.reshape(phi.shape))
    # The rotations are every spec's but the last layer's RZ, angles p - n
    # and up; spec's CNOTs only mark the sub-layers, each one None here.
    last_rz = spec.param_count - n
    schedule = []
    for entangler, gates in groupby(reversed(list(circuit_gates(spec))), key=_is_cnot):
        schedule += [None] if entangler else [(*gate, reads[gate[:2]])
                                              for gate in gates if gate[2] < last_rz]
    last_read = schedule[-1]  # the circuit's first gate, RY on qubit 0

    def run(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        angles = np.asarray(angles, dtype=np.float64)
        if angles.shape != (n_draws, spec.param_count):
            raise ValueError(f"expected angles of shape ({n_draws}, {spec.param_count}), "
                             f"got {angles.shape}")
        # Through this module's binding, the one bench/tracer.py counts.
        rows[0] = run_circuit_batch(spec, angles, forward, z_readout=True)
        probs = probabilities(rows[0])
        losses = np.empty((n_blocks, n_draws))
        # Row-wise einsum, not @, for the reason given in ``outputs``.
        for g, config, cols, obs in terms:
            losses[g, cols], d_loss = loss_and_d_outputs(config, outputs(obs, probs[cols]), disc)
            weights = np.einsum("bm,mi->bi", d_loss, obs)
            flat[g + 1, cols] = flat[0, cols] * weights[:, :, None]
        del probs
        grads = np.empty((n_blocks, n_draws, spec.param_count))
        grads[:, :, last_rz:] = 0.0
        cos_half, sin_pair, phases = sv._gate_coefficients(-angles)  # each gate's inverse
        for gate in schedule:
            if gate is None:
                # In place: flat, lam and the reads are views of rows. With
                # mode="raise" np.take buffers its output, so the overlap is safe.
                np.take(blocks, undo, axis=-1, out=rows)
                continue
            kind, a, b, read = gate
            # dL/dtheta = Im<lam|P|phi> = Re<lam|chi> with chi = -i P phi. Every
            # row sums over a contiguous buffer, so its bits do not depend on
            # the grid's size.
            np.multiply(*read)
            np.multiply(lam, chi, out=products)
            grads[:, :, b] = products.sum(axis=2)
            if gate is last_read:
                break
            if kind == "ry":
                sv._apply_ry_inplace(rows, a, cos_half[b], sin_pair[b])
            else:
                sv._apply_rz_inplace(rows, a, phases[b])
        return losses, grads

    return run


def _blocks(draws: np.ndarray, live_rows: int) -> list[np.ndarray]:
    """A cell's (K, p) draws in blocks of at most p live rows, ``live_rows`` per
    draw: the one block rule of variance and entropy cells."""
    size = max(1, draws.shape[1] // live_rows)
    return np.split(draws, range(size, len(draws), size))


def gradient_variance(
    configs: Sequence[LossConfig], n_qubits: int, layers: int, n_samples: int, seed: int
) -> list[np.ndarray]:
    """Per-parameter gradient variances (p,) at random initializations.

    One array per config, in order. Each of the ``n_samples`` draws is shared
    by every config. The configs are grouped by required topology, in order
    of first use; per group the draws run in blocks, each one plan run for
    all of the group's configs, and one plan per block length is alive at a
    time. Variances use the unbiased K-1 divisor, so ``n_samples`` must be an
    integer >= MIN_VARIANCE_SAMPLES; every config must be a LossConfig.
    """
    sv._check_count("n_samples", n_samples, MIN_VARIANCE_SAMPLES)
    _check_configs(configs)
    groups: dict = {}  # topology -> member indices, in order of first use
    for i, config in enumerate(configs):
        groups.setdefault(config.required_topology(), []).append(i)
    draws = np.stack([draw_params(seed, n_qubits, layers, k) for k in range(n_samples)])
    grads: list = [None] * len(configs)
    for members in groups.values():
        # Each draw takes C + 1 live rows: phi and one lambda row per config.
        stacks = []
        for length, same in groupby(_blocks(draws, len(members) + 1), key=len):
            run = _adjoint_plan([[configs[i]] * length for i in members], n_qubits, layers)
            stacks += [run(angles)[1] for angles in same]
            del run  # so one plan's buffers are alive at a time
        for i, stack in zip(members, np.concatenate(stacks, axis=1)):
            grads[i] = stack
    return [g.var(axis=0, ddof=1) for g in grads]
