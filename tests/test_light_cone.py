"""Structurally dead gradient entries, from a Heisenberg light cone.

Every loss is a function of Z-string expectations. Walking the gates
backward, a CNOT maps each Pauli string to one Pauli string, and a rotation
exp(-i theta P / 2) whose generator P anticommutes with a string S adds the
string P S. The derivative with respect to theta is the expectation of a
commutator with P of the observable propagated back to just after the gate,
so the entry is dead, zero at every angle, when no string there
anticommutes with P; a composite is dead where all its outputs Z_k are. The
oracle tracks which of the 4^n strings may carry weight, a boolean mask
indexed by (x bits << n) | z bits with bit k for qubit k. That makes it sound
but not exact in general; the counts and variances below show it exact on
this grid.
"""

import numpy as np
import pytest

from plateaulab.ansatz import CircuitSpec, circuit_gates
from plateaulab.gradients import gradient_variance
from plateaulab.losses import all_configs, observables
from plateaulab.statevector import z_signs

CONFIGS = {config.name: config for config in all_configs()}
GRID = [(n, layers) for n in (4, 6) for layers in (1, 2, 3)]

# At most this much rounding noise on a dead entry's variance; the dead
# entries the engine does not skip read at most about 1e-32.
DEAD_VARIANCE = 1e-28


def z_string(row):
    """Bit mask of the qubits of the Z string whose diagonal is ``row``."""
    n = int(np.log2(row.size))
    bits = sum(1 << k for k in range(n) if row[1 << k] < 0)
    assert np.array_equal(row, np.prod(z_signs(n)[[k for k in range(n) if bits >> k & 1]],
                                       axis=0))
    return bits


def live_entries(config, n, layers):
    """Boolean (2nL,): the angles whose gradient the light cone does not kill."""
    spec = CircuitSpec(n, layers, config.required_topology())
    index = np.arange(4**n)
    x, z = index >> n, index & (2**n - 1)
    weighted = np.zeros(4**n, dtype=bool)
    weighted[[z_string(row) for row in observables(config, n)]] = True  # x = 0
    live = np.zeros(spec.param_count, dtype=bool)
    for gate in reversed(list(circuit_gates(spec))):
        if gate[0] == "cnot":
            # Conjugation by CNOT(c, t): x_t ^= x_c and z_c ^= z_t, an involution.
            c, t = gate[1:]
            weighted = weighted[(x ^ ((x >> c & 1) << t)) << n | (z ^ ((z >> t & 1) << c))]
            continue
        kind, q, j = gate
        # Y_q has x_q = z_q = 1 and Z_q has z_q = 1; a string anticommutes
        # with a one-qubit generator when their bits on q differ in parity.
        generator = ((1 << q) << n if kind == "ry" else 0) | (1 << q)
        anti = ((x >> q & 1) ^ (z >> q & 1) if kind == "ry" else x >> q & 1).astype(bool)
        live[j] = np.any(weighted & anti)
        weighted |= weighted[index ^ generator] & anti
    return live


def expected_live_count(name, n, layers):
    if name == "global_cost":
        return layers**2
    if name == "local_cost":
        return 2 * n * (layers - 1) + 1
    return 2 * n * layers - n


@pytest.mark.parametrize("n, layers", GRID)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_live_entry_counts(name, n, layers):
    live = live_entries(CONFIGS[name], n, layers)
    assert live.sum() == expected_live_count(name, n, layers)
    assert not live[-n:].any()  # the last layer's RZ, for every loss


@pytest.mark.parametrize("n, layers", GRID)
def test_variance_vanishes_exactly_on_the_dead_set(n, layers):
    variances = gradient_variance(list(CONFIGS.values()), n, layers, 4, 0)
    for config, variance in zip(CONFIGS.values(), variances):
        live = live_entries(config, n, layers)
        assert np.all(variance[~live] <= DEAD_VARIANCE), config.name
        assert np.all(variance[live] > DEAD_VARIANCE), config.name
        assert np.all(variance[-n:] == 0.0)  # skipped by the engine
