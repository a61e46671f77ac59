"""Layered hardware-efficient circuits with configurable entangling topology.

A circuit of L layers on n qubits has 2nL angles, laid out layer-major: within
layer l, angles[2nl : 2nl+n] are the RY angles of qubits 0..n-1 and
angles[2nl+n : 2nl+2n] the RZ angles. Each layer applies its rotations
(RY then RZ per qubit) followed by the fixed CNOT entangler of its topology.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import statevector as sv

_NORM_TOL = 1e-10


class Topology(enum.Enum):
    """Entangler of every layer: CNOTs along the chain, or on every qubit pair."""

    NEAREST_NEIGHBOR = "nearest_neighbor"
    ALL_TO_ALL = "all_to_all"


@dataclass(frozen=True)
class CircuitSpec:
    """Shape of one ansatz: qubit count, layer count, entangling topology.

    ValueError unless ``n_qubits`` is an integer in [MIN_QUBITS, MAX_QUBITS],
    ``layers`` one >= 1 (so ``param_count`` is one) and ``topology`` a Topology."""

    n_qubits: int
    layers: int
    topology: Topology

    def __post_init__(self) -> None:
        sv._check_count("n_qubits", self.n_qubits, sv.MIN_QUBITS, sv.MAX_QUBITS)
        sv._check_count("layers", self.layers, 1)
        if not isinstance(self.topology, Topology):
            raise ValueError(f"topology must be a Topology, got {self.topology!r}")

    @property
    def param_count(self) -> int:
        return 2 * self.n_qubits * self.layers


def entangler_pairs(spec: CircuitSpec) -> list[tuple[int, int]]:
    """CNOT (control, target) pairs of one entangling sub-layer, in order."""
    n = spec.n_qubits
    if spec.topology is Topology.NEAREST_NEIGHBOR:
        return [(k, k + 1) for k in range(n - 1)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def entangler_permutation(n_qubits: int, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Basis indices perm such that ``np.take(amps, perm, axis=-1)`` applies the
    CNOT ``pairs`` in order: each gate's kernel runs once, on the index vector."""
    perm = np.arange(2**n_qubits)
    for control, target in pairs:
        sv._apply_cnot_inplace(perm, control, target)
    return perm


def gate_count(spec: CircuitSpec) -> int:
    """Total gates: 2n rotations per layer plus the entangler CNOTs."""
    return spec.layers * (2 * spec.n_qubits + len(entangler_pairs(spec)))


def circuit_gates(spec: CircuitSpec) -> Iterator[tuple]:
    """Yield the circuit's gates in application order: ("ry", qubit,
    param_index), ("rz", qubit, param_index) or ("cnot", control, target)."""
    n = spec.n_qubits
    pairs = entangler_pairs(spec)
    for layer in range(spec.layers):
        base = 2 * n * layer
        for k in range(n):
            yield ("ry", k, base + k)
            yield ("rz", k, base + n + k)
        for control, target in pairs:
            yield ("cnot", control, target)


def _check_params(spec: CircuitSpec, params) -> np.ndarray:
    angles = np.asarray(params, dtype=np.float64)
    if angles.shape != (spec.param_count,):
        raise ValueError(
            f"expected {spec.param_count} angles, got shape {angles.shape}"
        )
    return angles


def run_circuit(spec: CircuitSpec, params) -> np.ndarray:
    """Apply the full layered circuit to the all-zeros state: 2^n amplitudes,
    as one row of ``run_circuit_batch``; ValueError unless ``params`` holds
    param_count angles."""
    angles = _check_params(spec, params)
    return run_circuit_batch(spec, angles[None])[0]


def _row_gathers(specs: Sequence[CircuitSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (B, 2^n) that apply, and undo, each row's entangling sub-layer.

    Entry (b, j) of the forward indices is b * 2^n + perm_b[j] for the
    sub-layer permutation perm_b of ``specs[b]``, so ``np.take(block, index)``
    moves each row of a (B, 2^n) block within itself: C-contiguous, with the
    bits of a gather of each row alone. The undo indices are their inverse,
    set by one scatter. The CNOT kernels walk each distinct spec's sub-layer
    once, forward only.
    """
    perms = {spec: entangler_permutation(spec.n_qubits, entangler_pairs(spec))
             for spec in dict.fromkeys(specs)}
    forward = np.stack([perms[spec] for spec in specs])
    forward += np.arange(0, forward.size, forward.shape[1])[:, None]
    undo = np.empty_like(forward)
    np.put(undo, forward, np.arange(forward.size))
    return forward, undo


def run_circuit_batch(
    spec: CircuitSpec, angles_batch: np.ndarray, gather: np.ndarray | None = None,
    *, z_readout: bool = False, coefficients: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Evaluate the circuit for a whole batch of angle vectors at once.

    ``angles_batch`` has shape (B, param_count), else ValueError; returns
    complex amplitudes of shape (B, 2^n), one kernel call per gate for the
    whole batch. By default every row takes ``spec``'s entangling sub-layer,
    whose CNOT kernels walk a basis-index vector once per layer, so
    ``run_circuit`` makes one kernel call per gate. A given ``gather`` walks
    no CNOT kernel: a (2^n,) ``entangler_permutation`` applies one sub-layer
    to every row, and the (B, 2^n) forward indices of ``_row_gathers`` give
    each row its own spec's; ``spec`` then sets only n, the layers and the
    rotations. Raises ArithmeticError unless every row's norm is 1 to 1e-10,
    so a NaN state fails too.

    The first layer's rotations of qubit k act only on each row's prefix of
    2^(k+1) amplitudes, the ones they can reach from the all-zeros state;
    every later gate acts on whole rows, still one kernel call per gate. The
    values equal those of the full-width kernel walk, and so do the bits,
    except that an amplitude that is exactly zero may differ in the sign of
    that zero; ``probabilities`` squares the sign away.

    ``z_readout`` leaves out the n RZ kernels of the last layer, for callers
    that read only Z-basis probabilities. Those gates are diagonal phases
    followed only by a basis permutation, so they move no probability: the
    probabilities agree with the full circuit's to rounding, and the
    gradient of any function of them with respect to those n angles is
    exactly zero. The amplitudes then lack those phases.

    ``coefficients`` are ``sv._gate_coefficients(angles_batch)``, for a caller
    that has them already; by default the batch computes its own.
    """
    angles_batch = np.asarray(angles_batch, dtype=np.float64)
    if angles_batch.ndim != 2 or angles_batch.shape[1] != spec.param_count:
        raise ValueError(
            f"expected batch of shape (B, {spec.param_count}), "
            f"got {angles_batch.shape}"
        )
    n = spec.n_qubits
    amps = np.zeros((angles_batch.shape[0], 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    if coefficients is None:
        coefficients = sv._gate_coefficients(angles_batch)
    cos_half, sin_pair, phases = coefficients
    pairs = entangler_pairs(spec)
    # Before the first entangler qubits above k are still |0>, so qubit k's
    # gates reach only the row prefix [0, 2^(k+1)): a (k+1)-qubit register.
    # The gate order of ``circuit_gates``.
    for base in range(0, spec.param_count, 2 * n):
        phased = not (z_readout and base + 2 * n == spec.param_count)
        for k in range(n):
            view = sv._qubit_view(amps[:, : 2 ** (k + 1)] if base == 0 else amps, k)
            sv._apply_ry_inplace(view, cos_half[base + k], sin_pair[base + k])
            if phased:
                sv._apply_rz_inplace(view, phases[base + n + k])
        index = entangler_permutation(n, pairs) if gather is None else gather
        amps = amps.take(index, axis=-1 if index.ndim == 1 else None)
    # One pass over the float view: re^2 + im^2 summed per row.
    flat = amps.view(np.float64)
    norms = np.einsum("bi,bi->b", flat, flat)
    if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):  # a NaN norm fails too
        raise ArithmeticError("statevector norm drifted in batch evaluation")
    return amps
