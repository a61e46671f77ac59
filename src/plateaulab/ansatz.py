"""Layered hardware-efficient circuits with configurable entangling topology.

A circuit of L layers on n qubits has 2nL angles, laid out layer-major: within
layer l, angles[2nl : 2nl+n] are the RY angles of qubits 0..n-1 and
angles[2nl+n : 2nl+2n] the RZ angles. Each layer applies its rotations
(RY then RZ per qubit) followed by the fixed CNOT entangler, whose sub-layer
only permutes basis indices: one gather by ``entangler_permutation``, or by
``_row_gathers`` when rows of both topologies share one batch or one walk
serves many batches. The adjoint engine undoes a sub-layer with the inverse
of that gather, set by one scatter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import statevector as sv

_NORM_TOL = 1e-10


class Topology(enum.Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    ALL_TO_ALL = "all_to_all"


@dataclass(frozen=True)
class CircuitSpec:
    """Shape of one ansatz: qubit count, layer count, entangling topology."""

    n_qubits: int
    layers: int
    topology: Topology

    def __post_init__(self) -> None:
        sv._check_count("n_qubits", self.n_qubits, sv.MIN_QUBITS, sv.MAX_QUBITS)
        sv._check_count("layers", self.layers, 1)

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
    """Yield the circuit's gates in application order.

    Items are ("ry", qubit, param_index), ("rz", qubit, param_index) or
    ("cnot", control, target).
    """
    n = spec.n_qubits
    pairs = entangler_pairs(spec)
    for layer in range(spec.layers):
        base = 2 * n * layer
        for k in range(n):
            yield ("ry", k, base + k)
            yield ("rz", k, base + n + k)
        for control, target in pairs:
            yield ("cnot", control, target)


def _is_cnot(gate: tuple) -> bool:
    return gate[0] == "cnot"


def _check_params(spec: CircuitSpec, params) -> np.ndarray:
    angles = np.asarray(params, dtype=np.float64)
    if angles.shape != (spec.param_count,):
        raise ValueError(
            f"expected {spec.param_count} angles, got shape {angles.shape}"
        )
    return angles


def run_circuit(spec: CircuitSpec, params) -> np.ndarray:
    """Apply the full layered circuit to the all-zeros state: 2^n amplitudes."""
    angles = _check_params(spec, params)
    return run_circuit_batch(spec, angles[None])[0]


def _row_gathers(specs: Sequence[CircuitSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (B, 2^n) that apply, and undo, each row's entangling sub-layer.

    Entry (b, j) of the forward indices is b * 2^n + perm_b[j] for the
    sub-layer permutation perm_b of ``specs[b]``, so ``np.take(block, index)``
    moves each row of a (B, 2^n) block within itself: C-contiguous, with the
    bits of a gather of each row alone. The undo indices are their inverse,
    set by one scatter. The CNOT kernels walk each distinct spec's sub-layer
    once.
    """
    perms = {spec: entangler_permutation(spec.n_qubits, entangler_pairs(spec))
             for spec in dict.fromkeys(specs)}
    forward = np.stack([perms[spec] for spec in specs])
    forward += np.arange(0, forward.size, forward.shape[1])[:, None]
    undo = np.empty_like(forward)
    np.put(undo, forward, np.arange(forward.size))
    return forward, undo


def run_circuit_batch(
    spec: CircuitSpec, angles_batch: np.ndarray, gather: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the circuit for a whole batch of angle vectors at once.

    ``angles_batch`` has shape (B, param_count); returns complex amplitudes
    of shape (B, 2^n). One kernel call per gate amortizes the per-gate
    overhead across the batch: the adjoint engine's forward sweep runs a
    variance cell's draws, or every config of a training epoch, as rows.
    By default every row takes ``spec``'s entangling sub-layer: its CNOT
    kernels walk a basis-index vector once per layer, and one C-contiguous
    ``np.take(..., axis=-1)`` gather of the amplitudes applies it. ``gather``,
    the forward indices of ``_row_gathers``, instead gives each row its own
    spec's sub-layer with one flat ``np.take`` and walks no CNOT kernel, so
    rows of both topologies share the batch, and the entanglement sweep walks
    each (n, topology) once for all its depths; ``spec`` then sets only n,
    the layers and the rotations.
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
    cos_half, sin_pair, phases = sv._gate_coefficients(angles_batch)
    pairs = entangler_pairs(spec)
    # The gate order of ``circuit_gates``: per layer, RY then RZ per qubit,
    # then the sub-layer.
    for base in range(0, spec.param_count, 2 * n):
        for k in range(n):
            sv._apply_ry_inplace(amps, k, cos_half[base + k], sin_pair[base + k])
            sv._apply_rz_inplace(amps, k, phases[base + n + k])
        if gather is None:
            amps = np.take(amps, entangler_permutation(n, pairs), axis=-1)
        else:
            amps = np.take(amps, gather)
    norms = np.sum(sv.probabilities(amps), axis=1)
    if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):  # a NaN norm fails too
        raise ArithmeticError("statevector norm drifted in batch evaluation")
    return amps
