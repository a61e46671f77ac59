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
    """Central finite-difference gradient of an arbitrary scalar function at
    a 1-D array of angles; the step ``h`` must be a finite real number > 0.
    Both are checked before any loss call (ValueError)."""
    sv._check_real("h", h, 0, strict=True)
    angles = np.asarray(params, dtype=np.float64)
    if angles.ndim != 1:
        raise ValueError(f"expected a 1-D array of angles, got shape {angles.shape}")
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
# The same signs on phi's unreversed float view, as complex numbers whose
# float view gives both parts: -Z_q on both parts for Y, Z_q times (+1, -1)
# for Z.
_READ_SIGNS = np.array([-1.0 - 1.0j, 1.0 - 1.0j])
# A run's batches of reads share one products buffer of at most this many
# floats (64 KiB), or of one read where a read's products alone exceed it. A
# 512 KiB budget made the n = 10 all-to-all variance cells slower.
_READ_BATCH_FLOATS = 8192


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
    rotations: at each, dL/dtheta = Im<lambda|P|phi> = Re<lambda|-iP phi> is
    read for its generator P (Y_q or Z_q), then the gate undoes itself on
    every row with the forward's coefficients, its sine or phase pair
    reversed: the bits of the gate at -theta (``sv._gate_coefficients``), so
    a run makes one coefficient call. Each qubit's kernel view of the rows
    is built with the plan; one gather undoes each CNOT sub-layer with every
    row's own undo indices.
    A read writes the products of lambda with phi's float view, reversed
    along P's axis, into its slot of one products buffer. The reads fill it
    in batches of as many as fit in ``_READ_BATCH_FLOATS`` floats; each
    batch, the last one possibly partial, then takes one multiply by its
    reads' +-1 signs of -iP (rows of ``sv.z_signs``) and one row sum per
    (read, block, row) into a read-ordered buffer, and one take per run puts
    the entries in parameter order. Where the buffer holds one read, a read
    forms chi = -iP phi first and multiplies lambda by it, which is faster
    there than the strided product over G blocks; a +-1 factor commutes with
    an IEEE product, so both forms give the same bits.
    The walk back ends at its last read, that of the circuit's first gate,
    whose undo would feed no read. It skips the last layer's RZ gates, as
    the forward does: their gradient entries are exact zeros. Every row sum
    runs over one contiguous row, so an entry's loss and gradient have the
    same bits in any grid and at any batch length.
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
    blocks = rows.reshape(n_blocks + 1, -1)  # one flat run of B rows per block
    # The rotations are every spec's but the last layer's RZ, angles p - n
    # and up; spec's CNOTs only mark the sub-layers, each one None here.
    last_rz = spec.param_count - n
    walk = []
    for entangler, gates in groupby(reversed(list(circuit_gates(spec))),
                                    key=lambda gate: gate[0] == "cnot"):
        walk += [None] if entangler else [gate for gate in gates if gate[2] < last_rz]
    reads = [gate for gate in walk if gate]
    batch = min(len(reads), max(1, _READ_BATCH_FLOATS // (n_blocks * n_draws * 2 ** (n + 1))))
    products = np.empty((batch, n_blocks, n_draws, 2 ** (n + 1)))
    read_grads = np.zeros((len(reads) + 1, n_blocks, n_draws))  # the last row stays 0
    # Entry j of a gradient is row order[j] of read_grads.
    order = np.full(spec.param_count, len(reads))
    order[[gate[2] for gate in reads]] = np.arange(len(reads))
    by_param = read_grads.transpose(1, 2, 0)
    lam = flat[1:]
    if batch > 1:
        # Row (kind, qubit) of sign_table: that read's signs of -iP on phi's
        # unreversed float view, as int8 (+-1 is exact in any dtype) to keep
        # the 2n rows small; read r takes row sign_index[r].
        sign_table = (_READ_SIGNS[:, None, None] * sv.z_signs(n)).view(np.float64).astype(
            np.int8).reshape(2 * n, 1, 1, -1)
        sign_index = np.array([a + n * (kind == "rz") for kind, a, _ in reads])
    else:
        chi = np.empty((n_draws, 2 ** (n + 1)))
        lone = (lam.reshape(products.shape[1:]), chi, products[0])  # lambda * chi
    # (kind, qubit) -> the read's operands and the kernel view of every row
    # of rows. A batched read takes its slot of the last operand, products in
    # phi's shape; a lone read forms chi first.
    reads_of = {}
    for a in range(n):
        shape = (n_draws, 2 ** (n - 1 - a), 2, 2**a, 2)
        phi = flat[0].reshape(shape)
        undo_view = sv._qubit_view(rows, a)
        if batch > 1:
            lam_view = lam.reshape(n_blocks, *shape)
            slots = products.reshape(batch, n_blocks, *shape)
            reads_of["ry", a] = (lam_view, phi[:, :, ::-1], slots), undo_view
            reads_of["rz", a] = (lam_view, phi[..., ::-1], slots), undo_view
        else:
            chi_view = chi.reshape(shape)
            reads_of["ry", a] = (phi[:, :, ::-1], _MINUS_I_Y_SIGNS, chi_view), undo_view
            reads_of["rz", a] = (phi[..., ::-1], _MINUS_I_Z_SIGNS, chi_view), undo_view
    schedule, r = [], 0  # r: the next read's row of read_grads
    for gate in walk:
        if gate is None:
            schedule.append(None)
            continue
        kind, a, b = gate
        operands, undo_view = reads_of[kind, a]
        k = r % batch  # the read's slot of products
        if batch > 1:
            multiplies = ((operands[0], operands[1], operands[2][k]),)
        else:
            multiplies = (operands, lone)
        r += 1
        # A batch's signs and row sums follow its last read.
        flush = None
        if k == batch - 1 or r == len(reads):
            first = r - k - 1
            flush = (products if k == batch - 1 else products[:k + 1],
                     sign_index[first:r] if batch > 1 else None, read_grads[first:r])
        schedule.append((kind, b, multiplies, flush, undo_view))
    last_read = schedule[-1]  # the circuit's first gate, RY on qubit 0

    def run(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        angles = np.asarray(angles, dtype=np.float64)
        if angles.shape != (n_draws, spec.param_count):
            raise ValueError(f"expected angles of shape ({n_draws}, {spec.param_count}), "
                             f"got {angles.shape}")
        coefficients = sv._gate_coefficients(angles)
        # Through this module's binding, the one bench/tracer.py counts.
        rows[0] = run_circuit_batch(spec, angles, forward, z_readout=True,
                                    coefficients=coefficients)
        probs = probabilities(rows[0])
        losses = np.empty((n_blocks, n_draws))
        # Row-wise einsum, not @, for the reason given in ``outputs``.
        for g, config, cols, obs in terms:
            losses[g, cols], d_loss = loss_and_d_outputs(config, outputs(obs, probs[cols]), disc)
            weights = np.einsum("bm,mi->bi", d_loss, obs)
            flat[g + 1, cols] = flat[0, cols] * weights[:, :, None]
        del probs
        # Each gate's inverse: the same cosine, each pair reversed.
        cos_half, sin_pair, phases = coefficients
        sin_pair, phases = sin_pair[..., ::-1, :], phases[..., ::-1, :]
        for gate in schedule:
            if gate is None:
                # In place: the reads' operands are views of rows. With
                # mode="raise" take buffers its output, so the overlap is safe.
                blocks.take(undo, axis=-1, out=rows)
                continue
            kind, b, multiplies, flush, view = gate
            for x, y, out in multiplies:
                np.multiply(x, y, out=out)
            if flush:
                block, signs, out = flush
                if signs is not None:
                    block *= sign_table.take(signs, axis=0)
                np.add.reduce(block, axis=-1, out=out)
            if gate is last_read:
                break
            if kind == "ry":
                sv._apply_ry_inplace(view, cos_half[b], sin_pair[b])
            else:
                sv._apply_rz_inplace(view, phases[b])
        return losses, by_param.take(order, axis=-1)

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
