"""Exact statevector simulation of small qubit registers.

Convention used throughout the package: qubit k is bit k of the basis-state
integer index, so qubit 0 is the least significant bit. All observables here
are diagonal in the computational basis, so any consistent convention gives
the same physics; this one is fixed so that states, reduced density matrices
and tests all agree bit-for-bit.

The gate kernels act in place on a (B, 2^n) batch of amplitude rows (no
2^n x 2^n matrix is ever built), which is O(B 2^n) per gate and entirely
adequate for n <= 12. A single state is a batch of one. Their coefficients
come precomputed (cos and sin of a/2 for RY, exp(-i a/2) for RZ), one per
row, so a caller evaluating many gates computes them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_QUBITS = 2
MAX_QUBITS = 12

_EIG_FLOOR = 1e-12  # eigenvalues below this count as exactly 0 in entropy sums


@dataclass
class StateVector:
    """Normalized complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace matrix on a 2^k-dimensional subsystem."""

    dim: int
    entries: np.ndarray


def init_zero(n_qubits: int) -> StateVector:
    """All-zeros computational basis state on ``n_qubits`` qubits."""
    if not MIN_QUBITS <= n_qubits <= MAX_QUBITS:
        raise ValueError(
            f"n_qubits must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(n_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")


def _apply_ry_inplace(
    amps: np.ndarray, n_qubits: int, qubit: int, cos_half, sin_half
) -> None:
    # Axes of the view: (row, hi, bit of ``qubit``, lo) with
    # index = hi*2^(q+1) + bit*2^q + lo; coefficients broadcast per row.
    view = amps.reshape(-1, 2 ** (n_qubits - 1 - qubit), 2, 2**qubit)
    a0 = view[:, :, 0, :]
    a1 = view[:, :, 1, :]
    new0 = cos_half * a0 - sin_half * a1
    new1 = sin_half * a0 + cos_half * a1
    view[:, :, 0, :] = new0
    view[:, :, 1, :] = new1


def _apply_rz_inplace(amps: np.ndarray, n_qubits: int, qubit: int, phase) -> None:
    # ``phase`` is exp(-i a/2); the bit-1 half gets its conjugate.
    view = amps.reshape(-1, 2 ** (n_qubits - 1 - qubit), 2, 2**qubit)
    view[:, :, 0, :] *= phase
    view[:, :, 1, :] *= np.conj(phase)


def _apply_cnot_inplace(amps: np.ndarray, n_qubits: int, control: int, target: int) -> None:
    q_hi, q_lo = max(control, target), min(control, target)
    view = amps.reshape(
        -1, 2 ** (n_qubits - 1 - q_hi), 2, 2 ** (q_hi - q_lo - 1), 2, 2**q_lo
    )
    # Swap the two target-bit slices within the control=1 block.
    if control == q_hi:
        block = view[:, :, 1, :, :, :]
        tmp = block[:, :, :, 0, :].copy()
        block[:, :, :, 0, :] = block[:, :, :, 1, :]
        block[:, :, :, 1, :] = tmp
    else:
        tmp = view[:, :, 0, :, 1, :].copy()
        view[:, :, 0, :, 1, :] = view[:, :, 1, :, 1, :]
        view[:, :, 1, :, 1, :] = tmp


def apply_ry(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Rotate ``qubit`` about Y: [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]."""
    _check_qubit(state.n_qubits, qubit)
    out = state.copy()
    half = angle / 2.0
    _apply_ry_inplace(out.amplitudes, out.n_qubits, qubit, np.cos(half), np.sin(half))
    return out


def apply_rz(state: StateVector, qubit: int, angle: float) -> StateVector:
    """Rotate ``qubit`` about Z: diag(exp(-i a/2), exp(+i a/2))."""
    _check_qubit(state.n_qubits, qubit)
    out = state.copy()
    _apply_rz_inplace(out.amplitudes, out.n_qubits, qubit, np.exp(-1j * angle / 2.0))
    return out


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` where ``control`` is 1."""
    _check_qubit(state.n_qubits, control)
    _check_qubit(state.n_qubits, target)
    if control == target:
        raise ValueError("control and target must differ")
    out = state.copy()
    _apply_cnot_inplace(out.amplitudes, out.n_qubits, control, target)
    return out


@lru_cache(maxsize=None)
def z_signs(n_qubits: int) -> np.ndarray:
    """Read-only (n, 2^n) table; row k is the +-1 diagonal of Z_k."""
    idx = np.arange(2**n_qubits)
    table = 1.0 - 2.0 * ((idx >> np.arange(n_qubits)[:, None]) & 1)
    table.flags.writeable = False
    return table


def probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """Born probabilities |a|^2 of each amplitude, computed as re^2 + im^2."""
    return amplitudes.real**2 + amplitudes.imag**2


def expect_z(state: StateVector, qubit: int) -> float:
    """Expectation of Pauli-Z on one qubit; +1 weight where its bit is 0."""
    return expect_z_string(state, {qubit})


def expect_z_string(state: StateVector, qubits) -> float:
    """Parity expectation of the Z string over ``qubits``."""
    qubits = sorted(set(qubits))
    if not qubits:
        raise ValueError("qubits must be a nonempty set")
    for q in qubits:
        _check_qubit(state.n_qubits, q)
    signs = np.prod(z_signs(state.n_qubits)[qubits], axis=0)
    return float(np.dot(signs, probabilities(state.amplitudes)))


def reduced_density_matrix(state: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the ``keep`` qubits.

    Row/column index bit i of the result is the value of the i-th smallest
    kept qubit, matching the global least-significant-bit convention.
    """
    n = state.n_qubits
    keep = sorted(set(keep))
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a proper nonempty subset of the qubits")
    for q in keep:
        _check_qubit(n, q)
    rest = [q for q in range(n) if q not in keep]
    # Axis j of the reshaped tensor is qubit n-1-j; order kept axes so the
    # largest kept qubit is the most significant bit of the row index.
    perm = [n - 1 - q for q in reversed(keep)] + [n - 1 - q for q in reversed(rest)]
    tensor = state.amplitudes.reshape([2] * n).transpose(perm)
    mat = tensor.reshape(2 ** len(keep), 2 ** len(rest))
    rho = mat @ mat.conj().T
    return DensityMatrix(dim=2 ** len(keep), entries=rho)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * log2(lam)) of the eigenvalues, in bits."""
    entries = rho.entries
    if not np.allclose(entries, entries.conj().T, atol=1e-10):
        raise ArithmeticError("density matrix is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh(entries)
    eigs = np.clip(eigs.real, 0.0, 1.0)
    eigs = eigs[eigs > _EIG_FLOOR]
    if eigs.size == 0:
        return 0.0
    return float(-np.sum(eigs * np.log2(eigs)))
