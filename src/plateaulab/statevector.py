"""Exact statevector simulation of small qubit registers.

Qubit k is bit k of the basis-state index (qubit 0 is the least significant
bit) throughout the package. A state is a plain complex array with its 2^n
amplitudes on the last axis, and a block of states stacks them along leading
axes; every public function that takes a state reads n through
``qubit_count``. The ``apply_*`` gates take any array-like state and return
a new complex array, never changing their input.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

MIN_QUBITS = 2
MAX_QUBITS = 12

_EIG_FLOOR = 1e-12  # eigenvalues below this count as exactly 0 in entropy sums
_RY_SIGNS = np.array([[-1.0], [1.0]])  # RY's off-diagonal on the bit-swapped view


def qubit_count(amps) -> int:
    """Register size n of amplitudes (..., 2^n): the one place n is read.
    Raises ValueError unless the last axis holds 2^n amplitudes with n in
    [MIN_QUBITS, MAX_QUBITS]."""
    size = np.shape(amps)[-1] if np.ndim(amps) else 0
    n = size.bit_length() - 1
    if not MIN_QUBITS <= n <= MAX_QUBITS or size != 2**n:
        raise ValueError(f"expected 2^n amplitudes with n in [{MIN_QUBITS}, "
                         f"{MAX_QUBITS}] on the last axis, got {size}")
    return n


def _check_count(name: str, value, low: float, high: float = math.inf) -> None:
    """The one count rule: raise ValueError naming ``name`` unless ``value``
    is a Python or numpy integer, not a bool, in [low, high]. Every count the
    package takes passes it before any circuit runs (qubit and layer counts,
    K, epochs, grid points, seeds, sample and qubit indices, the CLI's
    integer flags); a numpy integer is kept as given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value <= high):
        bound = ("" if low == -math.inf else f" >= {low}" if high == math.inf
                 else f" in [{low}, {high}]")
        raise ValueError(f"{name} must be an integer{bound}, got {value}")


def _check_real(name: str, value, low: float = -math.inf, strict: bool = False) -> None:
    """The one real-number rule: raise ValueError naming ``name`` unless
    ``value`` is a Python or numpy real number, not a bool, finite and >= low
    (> low if ``strict``)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not -math.inf < value < math.inf or value < low
            or (strict and value == low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be a finite real number{bound}, got {value!r}")


def init_zero(n_qubits: int) -> np.ndarray:
    """All-zeros computational basis state on ``n_qubits`` qubits."""
    _check_count("n_qubits", n_qubits, MIN_QUBITS, MAX_QUBITS)
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _check_qubit(n_qubits: int, qubit: int) -> None:
    """Raise ValueError unless ``qubit`` is an integer, not a bool, and
    IndexError unless it is in [0, n_qubits)."""
    _check_count("qubit", qubit, -math.inf)
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")


def _gate_coefficients(angles_batch: np.ndarray) -> tuple[np.ndarray, ...]:
    """cos(a/2) (p, B, 1, 1, 1), the signed RY pair [-sin(a/2), sin(a/2)] and
    the RZ pair [exp(-i a/2), exp(+i a/2)] (p, B, 1, 2, 1) of every angle of a
    (B, p) batch: entry j broadcasts over the (..., B, hi, bit, lo) kernel views."""
    half = angles_batch.T[:, :, None, None, None] / 2.0
    phase = np.exp(-1j * half)
    return (np.cos(half), np.sin(half) * _RY_SIGNS,
            np.concatenate([phase, np.conj(phase)], axis=-2))


# The gate kernels act in place on a (..., B, 2^n) block of rows; no 2^n x 2^n
# matrix is built. A rotation updates the whole (..., hi, bit, lo) view of its
# qubit, index = hi*2^(q+1) + bit*2^q + lo, so per-row coefficients broadcast
# over any axes before the rows. They take any (..., 2^m) view with m > q, a
# row prefix amps[..., :2^m] included; their ``reshape`` must stay a view,
# since an update to a copy would be lost without any error.
def _apply_ry_inplace(amps: np.ndarray, qubit: int, cos_half, sin_pair) -> None:
    # Three ufunc calls: ``sin_pair`` acts on the bit-swapped view.
    view = amps.reshape(amps.shape[:-1] + (amps.shape[-1] >> (qubit + 1), 2, 2**qubit))
    swapped = view[..., ::-1, :] * sin_pair
    view *= cos_half
    view += swapped


def _apply_rz_inplace(amps: np.ndarray, qubit: int, phases) -> None:
    view = amps.reshape(amps.shape[:-1] + (amps.shape[-1] >> (qubit + 1), 2, 2**qubit))
    view *= phases


def _apply_cnot_inplace(amps: np.ndarray, control: int, target: int) -> None:
    q_hi, q_lo = max(control, target), min(control, target)
    view = amps.reshape(amps.shape[:-1] + (
        amps.shape[-1] >> (q_hi + 1), 2, 2 ** (q_hi - q_lo - 1), 2, 2**q_lo))
    # One assignment: the control=1 block takes its own target-reversed view,
    # and numpy buffers the overlap.
    if control == q_hi:
        view[..., 1, :, :, :] = view[..., 1, :, ::-1, :]
    else:
        view[..., 1, :] = view[..., ::-1, :, 1, :]


def _checked_copy(amps, *qubits: int) -> np.ndarray:
    """A complex copy of the state(s) ``amps``, after checking n and each qubit."""
    out = np.array(amps, dtype=np.complex128)
    n = qubit_count(out)
    for q in qubits:
        _check_qubit(n, q)
    return out


def apply_ry(amps, qubit: int, angle: float) -> np.ndarray:
    """Rotate ``qubit`` about Y: [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]];
    the angle a must be a finite real number."""
    _check_real("angle", angle)
    out = _checked_copy(amps, qubit)
    cos_half, sin_pair, _ = _gate_coefficients(np.reshape(angle, (1, 1)))
    _apply_ry_inplace(out, qubit, cos_half[0, 0], sin_pair[0, 0])
    return out


def apply_rz(amps, qubit: int, angle: float) -> np.ndarray:
    """Rotate ``qubit`` about Z: diag(exp(-i a/2), exp(+i a/2)); the angle a
    must be a finite real number."""
    _check_real("angle", angle)
    out = _checked_copy(amps, qubit)
    _apply_rz_inplace(out, qubit, _gate_coefficients(np.reshape(angle, (1, 1)))[2][0, 0])
    return out


def apply_cnot(amps, control: int, target: int) -> np.ndarray:
    """Flip ``target`` where ``control`` is 1; the two must differ (ValueError)."""
    out = _checked_copy(amps, control, target)
    if control == target:
        raise ValueError("control and target must differ")
    _apply_cnot_inplace(out, control, target)
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


def outputs(obs: np.ndarray, probs) -> np.ndarray:
    """Outputs f = O p of every row of ``probs``, shape (..., m) for (m, 2^n) O:
    the one contraction of probabilities with diagonal observables, for every
    loss output and Z-string expectation. A row's bits do not depend on its block."""
    # Row-wise einsum, not @: BLAS sums depend on the row count; a row's bits must not.
    return np.einsum("...i,mi->...m", probs, obs)


def expect_z(amps, qubit: int) -> float | np.ndarray:
    """Expectation of Pauli-Z on one qubit in each state of a block, as
    ``expect_z_string`` of that qubit; +1 weight where its bit is 0."""
    return expect_z_string(amps, {qubit})


def expect_z_string(amps, qubits) -> float | np.ndarray:
    """Parity expectation of the Z string over ``qubits`` in each state of a
    block, each with the bits of its single-state call (a float for a single
    state). ValueError for no qubits; each entry is checked before the list is
    sorted, so ``[0, "1"]`` raises ValueError, not a TypeError."""
    qubits = list(qubits)
    if not qubits:
        raise ValueError("qubits must be a nonempty set")
    amps = np.asarray(amps)
    n = qubit_count(amps)
    for q in qubits:
        _check_qubit(n, q)
    qubits = sorted(set(qubits))
    signs = np.prod(z_signs(n)[qubits], axis=0, keepdims=True)
    values = outputs(signs, probabilities(amps))[..., 0]
    return float(values) if amps.ndim == 1 else values


def reduced_density_matrix(amps, keep) -> np.ndarray:
    """Partial trace onto the ``keep`` qubits of every state of a block.

    Returns (..., 2^k, 2^k) matrices for k kept qubits, each with the bits of
    its single-state call. Row/column index bit i is the value of the i-th
    smallest kept qubit, as in the global convention. ``keep`` entries are
    checked before sorting and must name a proper nonempty subset (ValueError).
    """
    amps = np.asarray(amps)
    n = qubit_count(amps)
    keep = list(keep)
    for q in keep:
        _check_qubit(n, q)
    keep = sorted(set(keep))
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a proper nonempty subset of the qubits")
    rest = [q for q in range(n) if q not in keep]
    lead = amps.shape[:-1]
    # Past the leading axes, axis j is qubit n-1-j; order kept axes so the
    # largest kept qubit is the most significant bit of the row index.
    perm = [len(lead) + n - 1 - q for q in [*reversed(keep), *reversed(rest)]]
    tensor = amps.reshape(lead + (2,) * n).transpose([*range(len(lead)), *perm])
    mat = tensor.reshape(lead + (2 ** len(keep), 2 ** len(rest)))
    return mat @ np.swapaxes(mat.conj(), -1, -2)


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Entropy -sum(lam * log2(lam)) in bits of each (..., d, d) density matrix,
    each with the bits of its single-matrix call; a single matrix gives a float
    and a pure state +0.0. Raises ValueError naming the shape unless ``rho`` is
    a stack of square matrices with d >= 1, and ArithmeticError unless it is
    Hermitian to 1e-10."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or not rho.shape[-1] == rho.shape[-2] >= 1:
        raise ValueError(f"expected density matrices of shape (..., d, d) with d >= 1, "
                         f"got {rho.shape}")
    if not np.allclose(rho, np.swapaxes(rho.conj(), -1, -2), atol=1e-10):
        raise ArithmeticError("density matrix is not Hermitian within tolerance")
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    # Each row is filtered on its own: zeros left in its sum would regroup
    # the terms and move the last bit. 0.0 - s is -s, but +0.0 for s = 0.
    kept = (row[row > _EIG_FLOOR] for row in eigs.reshape(-1, eigs.shape[-1]))
    bits = np.array([0.0 - np.sum(lam * np.log2(lam)) for lam in kept])
    return float(bits[0]) if eigs.ndim == 1 else bits.reshape(eigs.shape[:-1])
