"""The pi/2 parameter-shift rule on the whole circuit: the tests' oracle for
the library's one gradient engine, the adjoint plan.

Every output f_k is the expectation of a Z-diagonal observable, a
trigonometric polynomial of degree 1 in each angle of this gate set, so
df_k/dphi_j = (f_k(phi + pi/2 e_j) - f_k(phi - pi/2 e_j)) / 2 exactly
(Schuld et al., arXiv:1811.11184). One batch of 2p + 1 rows holds every
shifted circuit and the unshifted one. The batch keeps the last layer's RZ
phases, which the library's Z-basis readouts leave out, so the oracle's
entries for those angles are rounding noise, not exact zeros.

A plain helper module: pytest collects only ``test_*.py`` files.
"""

import numpy as np

from plateaulab.ansatz import run_circuit_batch
from plateaulab.losses import check_pairing, d_loss_d_outputs, observables
from plateaulab.statevector import outputs, probabilities, z_signs


def _shift_outputs(spec, params, obs):
    """Rows df/dphi_j, shape (p, m), for the outputs of ``obs``, and f at params."""
    angles = np.asarray(params, dtype=np.float64)
    p = spec.param_count
    assert angles.shape == (p,), angles.shape
    shifted = np.tile(angles, (2 * p + 1, 1))
    j = np.arange(p)
    shifted[j, j] += np.pi / 2
    shifted[p + j, j] -= np.pi / 2
    f = outputs(obs, probabilities(run_circuit_batch(spec, shifted)))
    return (f[:p] - f[p : 2 * p]) / 2, f[-1]


def shift_jacobian(spec, params):
    """Jacobian of every <Z_k>: entry (k, j) = d<Z_k>/dphi_j, shape (n, p)."""
    return _shift_outputs(spec, params, z_signs(spec.n_qubits))[0].T


def shift_gradient(config, spec, params, disc):
    """Gradient of the configured loss, J^T dL/df, shape (p,)."""
    check_pairing(config, spec, disc)
    jac, f = _shift_outputs(spec, params, observables(config, spec.n_qubits))
    return jac @ d_loss_d_outputs(config, f, disc)
