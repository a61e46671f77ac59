"""Layered hardware-efficient circuits with configurable entangling topology.

A circuit of L layers on n qubits has 2nL angles, laid out layer-major: within
layer l, angles[2nl : 2nl+n] are the RY angles of qubits 0..n-1 and
angles[2nl+n : 2nl+2n] the RZ angles. Each layer applies its rotations
(RY then RZ per qubit) followed by the fixed CNOT entangler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import statevector as sv
from .statevector import StateVector

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
        if not sv.MIN_QUBITS <= self.n_qubits <= sv.MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [{sv.MIN_QUBITS}, {sv.MAX_QUBITS}], "
                             f"got {self.n_qubits}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")

    @property
    def param_count(self) -> int:
        return 2 * self.n_qubits * self.layers


def entangler_pairs(spec: CircuitSpec) -> list[tuple[int, int]]:
    """CNOT (control, target) pairs of one entangling sub-layer, in order."""
    n = spec.n_qubits
    if spec.topology is Topology.NEAREST_NEIGHBOR:
        return [(k, k + 1) for k in range(n - 1)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def gate_count(spec: CircuitSpec) -> int:
    """Total gates: 2n rotations per layer plus the entangler CNOTs."""
    n, L = spec.n_qubits, spec.layers
    if spec.topology is Topology.NEAREST_NEIGHBOR:
        return L * (3 * n - 1)
    return L * (n * (n - 1) // 2 + 2 * n)


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


def _check_params(spec: CircuitSpec, params) -> np.ndarray:
    angles = np.asarray(params, dtype=np.float64)
    if angles.shape != (spec.param_count,):
        raise ValueError(
            f"expected {spec.param_count} angles, got shape {angles.shape}"
        )
    return angles


def _gate_coefficients(angles_batch: np.ndarray) -> tuple[np.ndarray, ...]:
    # cos(a/2), sin(a/2) (p, B, 1, 1, 1) and the RZ pair [exp(-i a/2), conj]
    # (p, B, 1, 2, 1) of every angle: entry j broadcasts over the kernel views.
    half = angles_batch.T[:, :, None, None, None] / 2.0
    phase = np.exp(-1j * half)
    return np.cos(half), np.sin(half), np.concatenate([phase, np.conj(phase)], axis=-2)


def run_circuit(spec: CircuitSpec, params) -> StateVector:
    """Apply the full layered circuit to the all-zeros state."""
    angles = _check_params(spec, params)
    return StateVector(spec.n_qubits, run_circuit_batch(spec, angles[None])[0])


def run_circuit_batch(spec: CircuitSpec, angles_batch: np.ndarray) -> np.ndarray:
    """Evaluate the circuit for a whole batch of angle vectors at once.

    ``angles_batch`` has shape (B, param_count); returns complex amplitudes
    of shape (B, 2^n). One vectorized pass over the gate list amortizes the
    per-gate overhead across the batch, which is what makes parameter-shift
    sweeps cheap.
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
    cos_half, sin_half, phases = _gate_coefficients(angles_batch)
    for kind, a, b in circuit_gates(spec):
        if kind == "ry":
            sv._apply_ry_inplace(amps, n, a, cos_half[b], sin_half[b])
        elif kind == "rz":
            sv._apply_rz_inplace(amps, n, a, phases[b])
        else:
            sv._apply_cnot_inplace(amps, n, a, b)
    norms = np.sum(sv.probabilities(amps), axis=1)
    if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):  # a NaN norm fails too
        raise ArithmeticError("statevector norm drifted in batch evaluation")
    return amps
